#include "util/hash.h"

namespace manet::util {

std::string hex64(std::uint64_t v) {
  std::string out(16, '0');
  hex64_to(out.data(), v);
  return out;
}

void hex64_to(char* out, std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    out[i] = kDigits[v & 0xf];
    v >>= 4;
  }
}

}  // namespace manet::util
