// Streaming FNV-1a 64-bit hashing, used for content addressing (the result
// cache keys of scenario/cache.h) and integrity digests of serialized cells.
// Same constants as util::hash_name() (rng.h); this class adds incremental
// updates and a stable lower-case hex rendering.
//
// FNV-1a is not cryptographic: the cache trusts its own directory. The
// digest exists to catch truncation, partial writes and hand edits, not an
// adversary.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace manet::util {

class Fnv64 {
 public:
  static constexpr std::uint64_t kOffsetBasis = 1469598103934665603ull;
  static constexpr std::uint64_t kPrime = 1099511628211ull;

  void update(std::string_view bytes) {
    for (const char c : bytes) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= kPrime;
    }
  }

  std::uint64_t digest() const { return state_; }

  /// One-shot convenience.
  static std::uint64_t hash(std::string_view bytes) {
    Fnv64 h;
    h.update(bytes);
    return h.digest();
  }

 private:
  std::uint64_t state_ = kOffsetBasis;
};

/// 16 lower-case hex characters, zero-padded.
std::string hex64(std::uint64_t v);

/// Writes hex64(v)'s 16 characters to out[0..16) (no terminator): the
/// allocation-free form for encoders that append in place.
void hex64_to(char* out, std::uint64_t v);

}  // namespace manet::util
