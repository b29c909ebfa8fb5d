#include "util/assert.h"

namespace manet::util {

namespace detail {

void fail_check(const char* expr, const char* file, int line,
                const std::string& message) {
  std::ostringstream oss;
  oss << "check failed: (" << expr << ") at " << file << ":" << line;
  if (!message.empty()) {
    oss << " — " << message;
  }
  const SimContext& ctx = sim_context();
  if (ctx.in_event) {
    oss << " [sim t=" << ctx.sim_time << " s";
    if (ctx.has_node) {
      oss << ", node " << ctx.node;
    }
    oss << "]";
    throw SimError(oss.str(), ctx.sim_time,
                   ctx.has_node ? ctx.node : SimError::kNoNode);
  }
  throw CheckError(oss.str());
}

}  // namespace detail
}  // namespace manet::util
