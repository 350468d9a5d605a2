#include "flowdiff/task_automaton.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>
#include <tuple>
#include <type_traits>
#include <utility>

#include "obs/metrics.h"

namespace flowdiff::core {

namespace {

struct DetectorMetrics {
  obs::Counter& flows_scanned =
      obs::Registry::global().counter("task.flows_scanned");
  /// Token-against-flow match attempts: the detector's unit of work.
  obs::Counter& transitions_evaluated =
      obs::Registry::global().counter("task.transitions_evaluated");
  obs::Counter& matchers_spawned =
      obs::Registry::global().counter("task.matchers_spawned");
  /// Matchers that timed out mid-task (no progress within the
  /// interleaving threshold).
  obs::Counter& matchers_expired =
      obs::Registry::global().counter("task.matchers_expired");
  obs::Counter& accepted =
      obs::Registry::global().counter("task.occurrences_accepted");
  /// Occurrences collapsed by the overlap de-duplication pass.
  obs::Counter& deduped =
      obs::Registry::global().counter("task.occurrences_deduped");
};

DetectorMetrics& detector_metrics() {
  static DetectorMetrics m;
  return m;
}

}  // namespace

std::string TaskAutomaton::to_string() const {
  std::string out = "automaton '" + name + "'\n";
  for (std::size_t i = 0; i < states.size(); ++i) {
    out += "  state " + std::to_string(i);
    if (start_states.contains(static_cast<int>(i))) out += " [start]";
    if (accept_states.contains(static_cast<int>(i))) out += " [accept]";
    out += ":";
    for (const auto& t : states[i]) out += " " + t.to_string();
    out += " ->";
    for (int s : transitions[i]) out += " " + std::to_string(s);
    out += "\n";
  }
  return out;
}

namespace {

std::string serialize_endpoint(const TokenEndpoint& ep) {
  std::string out;
  if (ep.kind == TokenEndpoint::Kind::kVariable) {
    out = "#" + std::to_string(ep.var);
  } else {
    out = ep.ip.to_string();
  }
  out += ' ';
  out += ep.port_any ? "*" : std::to_string(ep.port);
  return out;
}

/// A whole-token decimal in [0, max]: signs, trailing bytes and overflow
/// reject.
std::optional<int> parse_decimal(std::string_view text, int max) {
  int value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0 || value > max) {
    return std::nullopt;
  }
  return value;
}

std::optional<TokenEndpoint> parse_endpoint(std::istringstream& in) {
  std::string addr;
  std::string port;
  if (!(in >> addr >> port)) return std::nullopt;
  TokenEndpoint ep;
  if (!addr.empty() && addr[0] == '#') {
    const auto var = parse_decimal(std::string_view(addr).substr(1),
                                   std::numeric_limits<int>::max());
    if (!var) return std::nullopt;
    ep.kind = TokenEndpoint::Kind::kVariable;
    ep.var = *var;
  } else {
    const auto ip = Ipv4::parse(addr);
    if (!ip) return std::nullopt;
    ep.kind = TokenEndpoint::Kind::kLiteral;
    ep.ip = *ip;
  }
  if (port == "*") {
    ep.port_any = true;
  } else {
    const auto value =
        parse_decimal(port, std::numeric_limits<std::uint16_t>::max());
    if (!value) return std::nullopt;
    ep.port = static_cast<std::uint16_t>(*value);
  }
  return ep;
}

}  // namespace

std::string TaskAutomaton::serialize() const {
  std::string out = "TASK " + name + "\n";
  for (std::size_t i = 0; i < states.size(); ++i) {
    out += "STATE " + std::to_string(i);
    if (start_states.contains(static_cast<int>(i))) out += " start";
    if (accept_states.contains(static_cast<int>(i))) out += " accept";
    out += "\n";
    for (const auto& token : states[i]) {
      out += "TOKEN " + serialize_endpoint(token.src) + ' ' +
             serialize_endpoint(token.dst) + ' ' +
             std::to_string(static_cast<int>(token.proto)) + "\n";
    }
    out += "TRANS";
    for (int succ : transitions[i]) out += ' ' + std::to_string(succ);
    out += "\n";
  }
  return out;
}

std::optional<TaskAutomaton> TaskAutomaton::parse(std::string_view text) {
  TaskAutomaton automaton;
  std::istringstream lines{std::string(text)};
  std::string line;
  int current_state = -1;
  bool saw_task = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream in(line);
    std::string kind;
    if (!(in >> kind)) continue;
    if (kind == "TASK") {
      std::string rest;
      std::getline(in, rest);
      const auto pos = rest.find_first_not_of(' ');
      automaton.name = pos == std::string::npos ? "" : rest.substr(pos);
      saw_task = true;
    } else if (kind == "STATE") {
      int index = -1;
      if (!(in >> index) ||
          index != static_cast<int>(automaton.states.size())) {
        return std::nullopt;
      }
      automaton.states.emplace_back();
      automaton.transitions.emplace_back();
      current_state = index;
      for (std::string flag; in >> flag;) {
        if (flag != "start" && flag != "accept") return std::nullopt;
        (flag == "start" ? automaton.start_states : automaton.accept_states)
            .insert(index);
      }
    } else if (kind == "TOKEN") {
      if (current_state < 0) return std::nullopt;
      FlowToken token;
      const auto src = parse_endpoint(in);
      const auto dst = parse_endpoint(in);
      int proto = 0;
      std::string extra;
      if (!src || !dst || !(in >> proto) || in >> extra) return std::nullopt;
      if (proto != 1 && proto != 6 && proto != 17) return std::nullopt;
      token.src = *src;
      token.dst = *dst;
      token.proto = static_cast<of::Proto>(proto);  // ICMP, TCP or UDP.
      automaton.states[static_cast<std::size_t>(current_state)].push_back(
          token);
    } else if (kind == "TRANS") {
      if (current_state < 0) return std::nullopt;
      for (std::string field; in >> field;) {
        const auto succ =
            parse_decimal(field, std::numeric_limits<int>::max());
        if (!succ) return std::nullopt;
        automaton.transitions[static_cast<std::size_t>(current_state)]
            .insert(*succ);
      }
    } else {
      return std::nullopt;
    }
  }
  if (!saw_task) return std::nullopt;
  // Every state needs a token to match (the miner never emits an empty
  // one), and transition targets must be valid states.
  for (const auto& tokens : automaton.states) {
    if (tokens.empty()) return std::nullopt;
  }
  for (const auto& outs : automaton.transitions) {
    for (int succ : outs) {
      if (succ < 0 || succ >= static_cast<int>(automaton.states.size())) {
        return std::nullopt;
      }
    }
  }
  return automaton;
}

bool TaskAutomaton::accepts(const std::vector<FlowToken>& tokens) const {
  if (tokens.empty() || states.empty()) return false;
  // Frontier of (state, offset) positions after consuming a prefix.
  std::set<std::pair<int, std::size_t>> frontier;
  for (int s : start_states) frontier.insert({s, 0});

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::set<std::pair<int, std::size_t>> next;
    bool accepted_here = false;
    for (const auto& [state, offset] : frontier) {
      const auto& seq = states[static_cast<std::size_t>(state)];
      if (offset >= seq.size() || !(seq[offset] == tokens[i])) continue;
      if (offset + 1 == seq.size()) {
        if (accept_states.contains(state)) accepted_here = true;
        for (int succ : transitions[static_cast<std::size_t>(state)]) {
          next.insert({succ, 0});
        }
      } else {
        next.insert({state, offset + 1});
      }
    }
    if (i + 1 == tokens.size()) return accepted_here;
    if (next.empty()) return false;
    frontier = std::move(next);
  }
  return false;
}

namespace {

// The detector runs on a flat compilation of the automata, built once per
// detect call. Each automaton's variables get dense slots, and every
// matcher carries one binding record of `width` words:
//
//   [value of variable 0 .. value of variable vars-1][bitset]
//
// Bit v < vars of the bitset says variable v is bound; bit vars + j says
// the automaton's j-th literal address was touched. A token matches a
// variable endpoint only by binding it (or by its bound value) and a
// literal endpoint only by its own address, so the hosts a matcher has
// touched are exactly its bound values plus its touched literals.

/// A pattern endpoint compiled against its automaton's binding record.
struct FlatEndpoint {
  std::uint32_t ip = 0;  ///< Literal endpoints only.
  /// Variable: its slot, which is also its bound bit. Literal: the touched
  /// bit of its address.
  std::uint32_t bit = 0;
  std::uint16_t port = 0;
  bool port_any = false;
  bool variable = false;
};

struct FlatToken {
  FlatEndpoint src;
  FlatEndpoint dst;
  of::Proto proto = of::Proto::kTcp;
};

struct FlatState {
  std::uint32_t token_begin = 0;  ///< Into CompiledTasks::tokens.
  std::uint32_t token_end = 0;
  std::uint32_t succ_begin = 0;   ///< Into CompiledTasks::successors.
  std::uint32_t succ_end = 0;
  bool accept = false;
};

struct FlatAutomaton {
  std::uint32_t vars = 0;
  std::uint32_t literal_begin = 0;  ///< Into CompiledTasks::literals.
  std::uint32_t literals = 0;
  std::uint32_t width = 0;  ///< Binding-record words.
  /// Start states that hold a token: the match attempts one flow costs
  /// the automaton while it is below its matcher cap.
  std::uint32_t starts = 0;
};

/// A start state, keyed by the protocol and destination port of its first
/// token (a wildcard port has its own key).
struct StartEntry {
  std::uint32_t key = 0;
  std::uint32_t automaton = 0;
  std::uint32_t rank = 0;  ///< Among its automaton's start states.
  std::uint32_t state = 0;
};

constexpr std::uint32_t kAnyPort = 1U << 16;

constexpr std::uint32_t start_key(of::Proto proto, std::uint32_t port) {
  return (static_cast<std::uint32_t>(proto) << 17) | port;
}

struct CompiledTasks {
  std::vector<FlatAutomaton> automata;
  std::vector<FlatState> states;
  std::vector<FlatToken> tokens;
  std::vector<std::uint32_t> successors;
  std::vector<std::uint32_t> literals;  ///< Sorted per automaton.
  std::vector<StartEntry> starts;       ///< Sorted by key, then order.
  std::uint32_t max_width = 0;
};

/// Flattens the automata. Token-less states can never match: they are
/// dropped from the start states and the successor lists (TaskAutomaton::
/// parse rejects them, and the miner never emits one).
CompiledTasks compile(const std::vector<TaskAutomaton>& automata) {
  CompiledTasks c;
  std::size_t states = 0;
  std::size_t tokens = 0;
  std::size_t successors = 0;
  std::size_t starts = 0;
  for (const auto& automaton : automata) {
    states += automaton.states.size();
    for (const auto& seq : automaton.states) tokens += seq.size();
    for (const auto& outs : automaton.transitions) successors += outs.size();
    starts += automaton.start_states.size();
  }
  c.automata.reserve(automata.size());
  c.states.reserve(states);
  c.tokens.reserve(tokens);
  c.successors.reserve(successors);
  c.literals.reserve(2 * tokens);
  c.starts.reserve(starts);
  std::vector<int> vars;  // One automaton's variable ids, sorted.
  vars.reserve(2 * tokens);

  for (std::uint32_t a = 0; a < automata.size(); ++a) {
    const auto& automaton = automata[a];
    const auto count = static_cast<int>(automaton.states.size());
    const auto holds_tokens = [&](int s) {
      return s >= 0 && s < count &&
             !automaton.states[static_cast<std::size_t>(s)].empty();
    };
    FlatAutomaton flat;
    flat.literal_begin = static_cast<std::uint32_t>(c.literals.size());
    vars.clear();
    for (const auto& seq : automaton.states) {
      for (const auto& token : seq) {
        for (const auto* ep : {&token.src, &token.dst}) {
          if (ep->kind == TokenEndpoint::Kind::kVariable) {
            vars.push_back(ep->var);
          } else {
            c.literals.push_back(ep->ip.raw());
          }
        }
      }
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
    const auto literals = c.literals.begin() + flat.literal_begin;
    std::sort(literals, c.literals.end());
    c.literals.erase(std::unique(literals, c.literals.end()),
                     c.literals.end());
    flat.vars = static_cast<std::uint32_t>(vars.size());
    flat.literals =
        static_cast<std::uint32_t>(c.literals.size()) - flat.literal_begin;
    flat.width = flat.vars + (flat.vars + flat.literals + 31) / 32;
    c.max_width = std::max(c.max_width, flat.width);

    const auto compile_endpoint = [&](const TokenEndpoint& ep) {
      FlatEndpoint out;
      out.port = ep.port;
      out.port_any = ep.port_any;
      if (ep.kind == TokenEndpoint::Kind::kVariable) {
        out.variable = true;
        out.bit = static_cast<std::uint32_t>(
            std::lower_bound(vars.begin(), vars.end(), ep.var) - vars.begin());
      } else {
        out.ip = ep.ip.raw();
        const auto begin = c.literals.begin() + flat.literal_begin;
        out.bit = flat.vars + static_cast<std::uint32_t>(
                                  std::lower_bound(begin, c.literals.end(),
                                                   out.ip) -
                                  begin);
      }
      return out;
    };

    const auto first = static_cast<std::uint32_t>(c.states.size());
    for (int s = 0; s < count; ++s) {
      FlatState state;
      state.accept = automaton.accept_states.contains(s);
      state.token_begin = static_cast<std::uint32_t>(c.tokens.size());
      for (const auto& token : automaton.states[static_cast<std::size_t>(s)]) {
        c.tokens.push_back({compile_endpoint(token.src),
                            compile_endpoint(token.dst), token.proto});
      }
      state.token_end = static_cast<std::uint32_t>(c.tokens.size());
      state.succ_begin = static_cast<std::uint32_t>(c.successors.size());
      if (static_cast<std::size_t>(s) < automaton.transitions.size()) {
        for (int succ : automaton.transitions[static_cast<std::size_t>(s)]) {
          if (holds_tokens(succ)) {
            c.successors.push_back(first + static_cast<std::uint32_t>(succ));
          }
        }
      }
      state.succ_end = static_cast<std::uint32_t>(c.successors.size());
      c.states.push_back(state);
    }
    for (int s : automaton.start_states) {
      if (!holds_tokens(s)) continue;
      const FlatToken& head = c.tokens[c.states[first + s].token_begin];
      c.starts.push_back(
          {start_key(head.proto, head.dst.port_any ? kAnyPort : head.dst.port),
           a, flat.starts++, first + static_cast<std::uint32_t>(s)});
    }
    c.automata.push_back(flat);
  }
  std::sort(c.starts.begin(), c.starts.end(),
            [](const StartEntry& x, const StartEntry& y) {
              return std::tie(x.key, x.automaton, x.rank) <
                     std::tie(y.key, y.automaton, y.rank);
            });
  return c;
}

/// One matcher: a trivially copyable header whose binding record lives in
/// the MatcherBuffer that holds it.
struct Matcher {
  std::uint32_t automaton = 0;
  std::uint32_t state = 0;   ///< Into CompiledTasks::states.
  std::uint32_t offset = 0;  ///< Next token to match within the state.
  std::uint32_t record = 0;  ///< First word of its binding record.
  SimTime begin = 0;
  SimTime last_progress = 0;
};
static_assert(std::is_trivially_copyable_v<Matcher>);

/// Matchers in scan order with their binding records. The detector keeps
/// two and swaps them on every flow; clear() keeps the capacity.
struct MatcherBuffer {
  std::vector<Matcher> matchers;
  std::vector<std::uint32_t> words;

  void push(Matcher m, const std::uint32_t* record, std::uint32_t width) {
    m.record = static_cast<std::uint32_t>(words.size());
    words.insert(words.end(), record, record + width);
    matchers.push_back(m);
  }
  void clear() {
    matchers.clear();
    words.clear();
  }
  void reserve(std::size_t count, std::uint32_t width) {
    matchers.reserve(count);
    words.reserve(count * width);
  }
};

/// A binding record viewed in place (see the layout above).
struct Record {
  std::uint32_t* words;
  std::uint32_t vars;

  [[nodiscard]] bool has(std::uint32_t bit) const {
    return ((words[vars + bit / 32] >> (bit % 32)) & 1U) != 0;
  }
  void set(std::uint32_t bit) const {
    words[vars + bit / 32] |= 1U << (bit % 32);
  }
  void reset(std::uint32_t bit) const {
    words[vars + bit / 32] &= ~(1U << (bit % 32));
  }
};

constexpr std::uint32_t kNoBinding = ~0U;

/// Matches one endpoint of a pattern token against a concrete endpoint.
/// A variable that binds here reports its slot in `bound`, so that the
/// caller can roll the binding back if the token's other endpoint fails.
bool match_endpoint(const FlatEndpoint& pattern, Ipv4 ip, std::uint16_t port,
                    Record record, const DetectorConfig& config,
                    std::uint32_t& bound) {
  if (pattern.port_any) {
    if (port < config.ephemeral_floor) return false;
  } else if (pattern.port != port) {
    return false;
  }
  if (!pattern.variable) return pattern.ip == ip.raw();
  // Subject variables only bind to non-service hosts, injectively.
  if (config.service_ips.contains(ip)) return false;
  if (record.has(pattern.bit)) return record.words[pattern.bit] == ip.raw();
  for (std::uint32_t v = 0; v < record.vars; ++v) {
    if (record.has(v) && record.words[v] == ip.raw()) return false;
  }
  record.words[pattern.bit] = ip.raw();
  record.set(pattern.bit);
  bound = pattern.bit;
  return true;
}

/// Tries one token on a record in place: a match marks the touched
/// literals; a miss leaves the record as it was.
bool match_token(const FlatToken& pattern, const of::FlowKey& key,
                 Record record, const DetectorConfig& config) {
  if (pattern.proto != key.proto) return false;
  std::uint32_t bound = kNoBinding;
  if (!match_endpoint(pattern.src, key.src_ip, key.src_port, record, config,
                      bound)) {
    return false;
  }
  std::uint32_t unused = kNoBinding;
  if (!match_endpoint(pattern.dst, key.dst_ip, key.dst_port, record, config,
                      unused)) {
    if (bound != kNoBinding) record.reset(bound);
    return false;
  }
  if (!pattern.src.variable) record.set(pattern.src.bit);
  if (!pattern.dst.variable) record.set(pattern.dst.bit);
  return true;
}

TaskOccurrence make_occurrence(const std::string& task,
                               const CompiledTasks& c,
                               const FlatAutomaton& automaton, Record record,
                               SimTime begin, SimTime end) {
  TaskOccurrence occ;
  occ.task = task;
  occ.begin = begin;
  occ.end = end;
  const std::uint32_t bits = automaton.vars + automaton.literals;
  std::size_t touched = 0;
  for (std::uint32_t bit = 0; bit < bits; ++bit) touched += record.has(bit);
  occ.involved.reserve(touched);
  for (std::uint32_t v = 0; v < automaton.vars; ++v) {
    if (record.has(v)) occ.involved.emplace_back(record.words[v]);
  }
  for (std::uint32_t j = 0; j < automaton.literals; ++j) {
    if (record.has(automaton.vars + j)) {
      occ.involved.emplace_back(c.literals[automaton.literal_begin + j]);
    }
  }
  std::sort(occ.involved.begin(), occ.involved.end());
  occ.involved.erase(std::unique(occ.involved.begin(), occ.involved.end()),
                     occ.involved.end());
  return occ;
}

}  // namespace

std::vector<TaskOccurrence> detect_tasks(
    const std::vector<TaskAutomaton>& automata, const DetectorConfig& config,
    const of::FlowSequence& flows) {
  const CompiledTasks c = compile(automata);
  std::vector<TaskOccurrence> occurrences;
  std::vector<std::size_t> active_per_task(automata.size(), 0);
  // Room for a typical window's live matchers, so that most calls never
  // grow the buffers.
  constexpr std::size_t kInitialMatchers = 64;
  MatcherBuffer active;
  MatcherBuffer next;
  active.reserve(kInitialMatchers, c.max_width);
  next.reserve(kInitialMatchers, c.max_width);
  std::vector<std::uint32_t> fresh(c.max_width);
  std::uint64_t evaluated = 0;
  std::uint64_t spawned = 0;
  std::uint64_t expired = 0;

  // Consumes a matcher whose current state just completed: either records
  // an occurrence (accept state) or branches into the state's successors.
  const auto on_state_complete = [&](Matcher m, std::uint32_t* words,
                                     SimTime ts) {
    const FlatState& state = c.states[m.state];
    const FlatAutomaton& automaton = c.automata[m.automaton];
    if (state.accept) {
      occurrences.push_back(make_occurrence(automata[m.automaton].name, c,
                                            automaton,
                                            {words, automaton.vars}, m.begin,
                                            ts));
      return;
    }
    for (std::uint32_t i = state.succ_begin; i < state.succ_end; ++i) {
      m.state = c.successors[i];
      m.offset = 0;
      ++active_per_task[m.automaton];
      next.push(m, words, automaton.width);
    }
  };

  for (const auto& flow : flows) {
    next.clear();
    for (Matcher m : active.matchers) {
      // Age out matchers that made no progress within the threshold.
      if (flow.ts - m.last_progress > config.interleave_threshold) {
        --active_per_task[m.automaton];
        ++expired;
        continue;
      }
      ++evaluated;
      const FlatState& state = c.states[m.state];
      const FlatAutomaton& automaton = c.automata[m.automaton];
      std::uint32_t* words = active.words.data() + m.record;
      if (!match_token(c.tokens[state.token_begin + m.offset], flow.key,
                       {words, automaton.vars}, config)) {
        // Interleaved unrelated flow: the matcher waits (until timeout).
        next.push(m, words, automaton.width);
        continue;
      }
      m.last_progress = flow.ts;
      if (state.token_begin + ++m.offset == state.token_end) {
        --active_per_task[m.automaton];
        on_state_complete(m, words, flow.ts);
      } else {
        next.push(m, words, automaton.width);
      }
    }

    // Spawn fresh matchers at start states whose first token has this
    // flow's protocol and destination port (or a wildcard port). Every
    // automaton below its cap is charged all its start states, as if each
    // were tried; a cap reached mid-automaton refunds the rest.
    for (std::size_t a = 0; a < c.automata.size(); ++a) {
      if (active_per_task[a] < config.max_matchers_per_task) {
        evaluated += c.automata[a].starts;
      }
    }
    const auto first_at = [&](std::uint32_t key) {
      return std::lower_bound(
          c.starts.begin(), c.starts.end(), key,
          [](const StartEntry& e, std::uint32_t k) { return e.key < k; });
    };
    const auto range = [&](std::uint32_t port) {
      const std::uint32_t key = start_key(flow.key.proto, port);
      return std::pair{first_at(key), first_at(key + 1)};
    };
    auto [exact, exact_end] = range(flow.key.dst_port);
    auto [wild, wild_end] = flow.key.dst_port >= config.ephemeral_floor
                                ? range(kAnyPort)
                                : std::pair{c.starts.end(), c.starts.end()};
    while (exact != exact_end || wild != wild_end) {
      // Merge the two candidate lists back into (automaton, rank) order.
      const bool take_exact =
          wild == wild_end ||
          (exact != exact_end &&
           std::tie(exact->automaton, exact->rank) <
               std::tie(wild->automaton, wild->rank));
      const StartEntry& entry = take_exact ? *exact++ : *wild++;
      auto& live = active_per_task[entry.automaton];
      if (live >= config.max_matchers_per_task) continue;
      const FlatAutomaton& automaton = c.automata[entry.automaton];
      const FlatState& state = c.states[entry.state];
      std::fill_n(fresh.begin(), automaton.width, 0U);
      if (!match_token(c.tokens[state.token_begin], flow.key,
                       {fresh.data(), automaton.vars}, config)) {
        continue;
      }
      ++spawned;
      const Matcher m{entry.automaton, entry.state, 1, 0, flow.ts, flow.ts};
      if (state.token_begin + 1 == state.token_end) {
        on_state_complete(m, fresh.data(), flow.ts);
      } else {
        ++live;
        next.push(m, fresh.data(), automaton.width);
      }
      if (live >= config.max_matchers_per_task) {
        evaluated -= automaton.starts - (entry.rank + 1);
      }
    }
    std::swap(active, next);
  }

  // De-duplicate: overlapping detections of the same task with the same
  // involved hosts collapse to the earliest.
  std::sort(occurrences.begin(), occurrences.end(),
            [](const TaskOccurrence& a, const TaskOccurrence& b) {
              return a.begin < b.begin;
            });
  std::vector<TaskOccurrence> deduped;
  for (auto& occ : occurrences) {
    const bool duplicate = std::any_of(
        deduped.begin(), deduped.end(), [&occ](const TaskOccurrence& kept) {
          return kept.task == occ.task && occ.begin <= kept.end &&
                 kept.involved == occ.involved;
        });
    if (!duplicate) deduped.push_back(std::move(occ));
  }

  DetectorMetrics& metrics = detector_metrics();
  metrics.flows_scanned.inc(flows.size());
  metrics.transitions_evaluated.inc(evaluated);
  metrics.matchers_spawned.inc(spawned);
  metrics.matchers_expired.inc(expired);
  metrics.accepted.inc(occurrences.size());
  metrics.deduped.inc(occurrences.size() - deduped.size());
  return deduped;
}

}  // namespace flowdiff::core
