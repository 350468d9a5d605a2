// Seeded input generation for the benchmark workloads.
//
// The simulator (simnet/controller/workload/faults/experiment) runs here
// and only here: generate() writes control-log files plus the service
// catalog and the learned task automata into a directory, and the measured
// process reads nothing else. The same (workload, seed) gives byte-identical
// files; manifest.txt lists every file with its size and FNV-1a hash and
// the combined input hash.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

[[nodiscard]] inline std::uint64_t fnv1a(std::string_view bytes,
                                         std::uint64_t h = kFnvBasis) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Writes the workload's inputs into `dir` (created if absent). Returns an
/// empty string on success, else the error.
[[nodiscard]] std::string generate(const std::string& workload,
                                   std::uint64_t seed, const std::string& dir);

}  // namespace perfbench
