#include "ingest/event_source.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>

#include "openflow/log_io.h"

namespace flowdiff::ingest {

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

// --- line splitting / parsing ---------------------------------------------

std::size_t EventSource::parse_line(std::string_view line,
                                    std::vector<of::ControlEvent>& out) {
  // Per-line rejection: comments and blanks append nothing, a record one
  // event, garbage is counted and skipped.
  if (of::is_comment_or_blank(line)) return 0;
  if (!of::parse_event_line(line, out.emplace_back())) {
    out.pop_back();
    ++stats_.lines_rejected;
    return 0;
  }
  ++stats_.events;
  return 1;
}

std::size_t EventSource::consume_text(PendingLine& pending,
                                      std::string_view chunk,
                                      std::vector<of::ControlEvent>& out) {
  stats_.bytes += chunk.size();
  std::size_t produced = 0;
  while (!chunk.empty()) {
    const auto nl = chunk.find('\n');
    const std::string_view piece = chunk.substr(0, nl);
    if (pending.discarding) {
      // The rest of an over-long line, already counted as rejected.
    } else if (pending.text.size() + piece.size() > kMaxPendingLine) {
      ++stats_.lines_rejected;
      pending.text.clear();
      pending.discarding = true;
    } else if (nl == std::string_view::npos) {
      pending.text.append(piece);
    } else if (pending.text.empty()) {
      produced += parse_line(piece, out);
    } else {
      pending.text.append(piece);
      produced += parse_line(pending.text, out);
      pending.text.clear();
    }
    if (nl == std::string_view::npos) break;
    pending.discarding = false;
    chunk.remove_prefix(nl + 1);
  }
  return produced;
}

std::size_t EventSource::finish_partial(PendingLine& pending,
                                        std::vector<of::ControlEvent>& out) {
  const std::size_t produced =
      pending.discarding || pending.text.empty()
          ? 0
          : parse_line(pending.text, out);
  pending.clear();
  return produced;
}

// --- FileTailSource -------------------------------------------------------

FileTailSource::FileTailSource(std::string tenant, FileTailConfig config)
    : EventSource(std::move(tenant)), config_(std::move(config)) {}

FileTailSource::~FileTailSource() { close_fd(fd_); }

std::string FileTailSource::describe() const {
  return "file:" + config_.path;
}

bool FileTailSource::ensure_open() {
  if (fd_ >= 0) return true;
  fd_ = ::open(config_.path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd_ < 0) return false;
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    close_fd(fd_);
    return false;
  }
  dev_ = st.st_dev;
  ino_ = st.st_ino;
  offset_ = 0;
  if (!config_.from_start) {
    offset_ = ::lseek(fd_, 0, SEEK_END);
    if (offset_ < 0) offset_ = 0;
  }
  return true;
}

std::size_t FileTailSource::drain_fd(std::vector<of::ControlEvent>& out) {
  std::size_t produced = 0;
  char buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::pread(fd_, buf, sizeof(buf), offset_);
    if (n <= 0) break;
    offset_ += n;
    produced += consume_text(
        partial_, std::string_view(buf, static_cast<std::size_t>(n)), out);
  }
  return produced;
}

std::size_t FileTailSource::poll(std::vector<of::ControlEvent>& out) {
  std::size_t produced = 0;
  if (!ensure_open()) {
    at_eof_ = true;
    return 0;
  }

  struct stat cur{};
  const bool have_cur = ::fstat(fd_, &cur) == 0;

  // copytruncate-style rotation: same file, but it shrank under us. The
  // bytes past the new length are gone; restart from the top.
  if (have_cur && cur.st_size < offset_) {
    ++stats_.truncations;
    offset_ = 0;
    partial_.clear();
  }

  produced += drain_fd(out);

  // rename-style rotation: the path now names a different file. Only
  // switch after draining the old fd to EOF above, so nothing written
  // before the rename is lost; the final unterminated line (a writer cut
  // off mid-record) is flushed as-is.
  struct stat at_path{};
  if (::stat(config_.path.c_str(), &at_path) == 0 &&
      (at_path.st_dev != dev_ || at_path.st_ino != ino_)) {
    produced += finish_partial(partial_, out);
    close_fd(fd_);
    ++stats_.rotations;
    const bool from_start = config_.from_start;
    config_.from_start = true;  // the successor file is all-new content
    if (ensure_open()) produced += drain_fd(out);
    config_.from_start = from_start;
    at_eof_ = false;  // a successor may already have more behind it
    return produced;
  }

  at_eof_ = true;
  return produced;
}

// --- SocketSource ---------------------------------------------------------

SocketSource::SocketSource(std::string tenant, SocketSourceConfig config)
    : EventSource(std::move(tenant)), config_(std::move(config)) {}

SocketSource::~SocketSource() {
  for (auto& client : clients_) close_fd(client.fd);
  const bool was_listening = listen_fd_ >= 0;
  close_fd(listen_fd_);
  if (was_listening && !config_.unix_path.empty()) {
    ::unlink(config_.unix_path.c_str());
  }
}

std::string SocketSource::describe() const {
  if (!config_.unix_path.empty()) return "unix:" + config_.unix_path;
  return "tcp:" + config_.address + ":" + std::to_string(bound_port_);
}

bool SocketSource::start() {
  if (!config_.unix_path.empty()) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      error_ = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
      error_ = "unix socket path too long: " + config_.unix_path;
      close_fd(listen_fd_);
      return false;
    }
    std::strncpy(addr.sun_path, config_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ::unlink(config_.unix_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error_ = "bind " + config_.unix_path + ": " + std::strerror(errno);
      close_fd(listen_fd_);
      return false;
    }
  } else {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listen_fd_ < 0) {
      error_ = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.address.c_str(), &addr.sin_addr) != 1) {
      error_ = "bad listen address: " + config_.address;
      close_fd(listen_fd_);
      return false;
    }
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      error_ = "bind " + config_.address + ":" +
               std::to_string(config_.port) + ": " + std::strerror(errno);
      close_fd(listen_fd_);
      return false;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                      &len) == 0) {
      bound_port_ = ntohs(bound.sin_port);
    }
  }
  if (::listen(listen_fd_, 16) != 0) {
    error_ = std::string("listen: ") + std::strerror(errno);
    close_fd(listen_fd_);
    return false;
  }
  if (!set_nonblocking(listen_fd_)) {
    error_ = std::string("fcntl: ") + std::strerror(errno);
    close_fd(listen_fd_);
    return false;
  }
  return true;
}

std::size_t SocketSource::drain_client(Client& client,
                                       std::vector<of::ControlEvent>& out,
                                       bool* closed) {
  std::size_t produced = 0;
  *closed = false;
  char buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      produced += consume_text(
          client.partial, std::string_view(buf, static_cast<std::size_t>(n)),
          out);
      continue;
    }
    if (n == 0) {
      // Orderly shutdown: a final line without a newline still counts.
      produced += finish_partial(client.partial, out);
      *closed = true;
    }
    // n < 0 with EAGAIN/EWOULDBLOCK: drained for now. Any other error:
    // treat as a disconnect too — the producer is gone either way.
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      produced += finish_partial(client.partial, out);
      *closed = true;
    }
    break;
  }
  return produced;
}

std::size_t SocketSource::poll(std::vector<of::ControlEvent>& out) {
  if (listen_fd_ < 0) return 0;
  std::size_t produced = 0;

  // Accept any producers waiting to connect.
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) break;
    if (clients_.size() >= kMaxClients || !set_nonblocking(fd)) {
      ::close(fd);
      ++stats_.disconnects;
      continue;
    }
    ++stats_.accepts;
    clients_.push_back(Client{fd, {}});
  }

  // Drain every connected producer; drop the ones that hung up.
  for (std::size_t i = 0; i < clients_.size();) {
    bool closed = false;
    produced += drain_client(clients_[i], out, &closed);
    if (closed) {
      close_fd(clients_[i].fd);
      ++stats_.disconnects;
      clients_.erase(clients_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  return produced;
}

}  // namespace flowdiff::ingest
