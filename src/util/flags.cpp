#include "util/flags.h"

#include <charconv>

#include "util/assert.h"
#include "util/strings.h"

namespace manet::util {

Flags::Flags(int argc, const char* const* argv) {
  MANET_CHECK(argc >= 1, "argc must include the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--name value" unless the next token is itself a flag (or absent),
    // in which case it is a bare boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

std::optional<std::string> Flags::raw(const std::string& name) {
  consumed_[name] = true;
  const auto it = values_.find(name);
  if (it == values_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::string Flags::get_string(const std::string& name, const std::string& def) {
  return raw(name).value_or(def);
}

int Flags::get_int(const std::string& name, int def) {
  const auto v = raw(name);
  if (!v) {
    return def;
  }
  int out = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  MANET_CHECK(ec == std::errc() && ptr == v->data() + v->size(),
              "--" << name << " expects an integer, got '" << *v << "'");
  return out;
}

std::uint64_t Flags::get_u64(const std::string& name, std::uint64_t def) {
  const auto v = raw(name);
  if (!v) {
    return def;
  }
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(v->data(), v->data() + v->size(), out);
  MANET_CHECK(ec == std::errc() && ptr == v->data() + v->size(),
              "--" << name << " expects an unsigned integer, got '" << *v
                   << "'");
  return out;
}

double Flags::get_double(const std::string& name, double def) {
  const auto v = raw(name);
  if (!v) {
    return def;
  }
  const auto out = parse_finite(*v);
  MANET_CHECK(out.has_value(),
              "--" << name << " expects a finite number, got '" << *v << "'");
  return *out;
}

bool Flags::get_bool(const std::string& name, bool def) {
  const auto v = raw(name);
  if (!v) {
    return def;
  }
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") {
    return true;
  }
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") {
    return false;
  }
  MANET_CHECK(false, "--" << name << " expects a boolean, got '" << *v << "'");
  return def;  // unreachable
}

void Flags::finish() const {
  for (const auto& [name, _] : values_) {
    MANET_CHECK(consumed_.count(name) > 0 && consumed_.at(name),
                "unknown flag: --" << name);
  }
}

}  // namespace manet::util
