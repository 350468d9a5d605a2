#include "flowdiff/flow_token.h"

namespace flowdiff::core {

std::string TokenEndpoint::to_string() const {
  std::string out = kind == Kind::kVariable ? "#" + std::to_string(var + 1)
                                            : ip.to_string();
  out += ":";
  out += port_any ? "*" : std::to_string(port);
  return out;
}

std::string FlowToken::to_string() const {
  return src.to_string() + "->" + dst.to_string() + "/" +
         of::to_string(proto);
}

FlowTokenizer::FlowTokenizer(bool mask_subjects, std::set<Ipv4> service_ips)
    : mask_subjects_(mask_subjects), service_ips_(std::move(service_ips)) {}

TokenEndpoint FlowTokenizer::make_endpoint(
    Ipv4 ip, std::uint16_t port, std::map<Ipv4, int>& subjects) const {
  TokenEndpoint ep;
  if (mask_subjects_ && !service_ips_.contains(ip)) {
    ep.kind = TokenEndpoint::Kind::kVariable;
    auto it = subjects.find(ip);
    if (it == subjects.end()) {
      it = subjects.emplace(ip, static_cast<int>(subjects.size())).first;
    }
    ep.var = it->second;
  } else {
    ep.kind = TokenEndpoint::Kind::kLiteral;
    ep.ip = ip;
  }
  if (port >= kEphemeralFloor) {
    ep.port_any = true;
  } else {
    ep.port = port;
  }
  return ep;
}

FlowToken FlowTokenizer::tokenize(const of::FlowKey& key,
                                  std::map<Ipv4, int>& subjects) const {
  FlowToken token;
  token.src = make_endpoint(key.src_ip, key.src_port, subjects);
  token.dst = make_endpoint(key.dst_ip, key.dst_port, subjects);
  token.proto = key.proto;
  return token;
}

}  // namespace flowdiff::core
