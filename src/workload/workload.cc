#include "workload/workload.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/strings.h"

namespace gdr {

namespace {

constexpr auto Trim = TrimWhitespace;

}  // namespace

Result<WorkloadSpec> WorkloadSpec::Parse(std::string_view text) {
  WorkloadSpec spec;
  const std::size_t colon = text.find(':');
  const std::string_view name = Trim(text.substr(0, colon));
  if (name.empty()) {
    return Status::InvalidArgument("workload spec '" + std::string(text) +
                                   "' lacks a name");
  }
  if (name.find('=') != std::string_view::npos ||
      name.find(',') != std::string_view::npos) {
    return Status::InvalidArgument(
        "workload spec must start with 'name:' before any parameters, got '" +
        std::string(text) + "'");
  }
  spec.name = std::string(name);
  if (colon == std::string_view::npos) return spec;

  std::string_view rest = text.substr(colon + 1);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view item = Trim(rest.substr(0, comma));
    rest = comma == std::string_view::npos ? std::string_view()
                                           : rest.substr(comma + 1);
    if (item.empty()) continue;  // tolerate a trailing comma
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("workload '" + spec.name +
                                     "': parameter '" + std::string(item) +
                                     "' is not of the form key=value");
    }
    const std::string key(Trim(item.substr(0, eq)));
    const std::string value(Trim(item.substr(eq + 1)));
    if (spec.Find(key) != nullptr) {
      return Status::InvalidArgument("workload '" + spec.name +
                                     "': duplicate parameter '" + key + "'");
    }
    spec.params.emplace_back(key, value);
  }
  return spec;
}

std::string WorkloadSpec::ToString() const {
  std::string out = name;
  for (std::size_t i = 0; i < params.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += params[i].first;
    out += '=';
    out += params[i].second;
  }
  return out;
}

std::string WorkloadSpec::Canonical() const {
  std::vector<std::pair<std::string, std::string>> sorted = params;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::string out(TrimWhitespace(name));
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  return out;
}

std::uint64_t WorkloadSpec::ContentHash() const { return Fnv1a64(Canonical()); }

const std::string* WorkloadSpec::Find(std::string_view key) const {
  for (const auto& [k, v] : params) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<std::string> WorkloadSpec::GetString(std::string_view key,
                                            std::string_view fallback) const {
  const std::string* value = Find(key);
  return value != nullptr ? *value : std::string(fallback);
}

Result<std::uint64_t> WorkloadSpec::GetUint64(std::string_view key,
                                              std::uint64_t fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  std::uint64_t parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size()) {
    return Status::InvalidArgument(
        "workload '" + name + "': parameter '" + std::string(key) +
        "' expects a non-negative integer, got '" + *value + "'");
  }
  return parsed;
}

Result<std::size_t> WorkloadSpec::GetSize(std::string_view key,
                                          std::size_t fallback) const {
  GDR_ASSIGN_OR_RETURN(const std::uint64_t value, GetUint64(key, fallback));
  return static_cast<std::size_t>(value);
}

Result<int> WorkloadSpec::GetInt(std::string_view key, int fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  int parsed = 0;
  const auto [ptr, ec] =
      std::from_chars(value->data(), value->data() + value->size(), parsed);
  if (ec != std::errc() || ptr != value->data() + value->size()) {
    return Status::InvalidArgument("workload '" + name + "': parameter '" +
                                   std::string(key) +
                                   "' expects an integer, got '" + *value +
                                   "'");
  }
  return parsed;
}

Result<double> WorkloadSpec::GetDouble(std::string_view key,
                                       double fallback) const {
  const std::string* value = Find(key);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value->c_str(), &end);
  if (value->empty() || end != value->c_str() + value->size() ||
      !std::isfinite(parsed)) {
    return Status::InvalidArgument("workload '" + name + "': parameter '" +
                                   std::string(key) +
                                   "' expects a finite number, got '" +
                                   *value + "'");
  }
  return parsed;
}

Status WorkloadSpec::RejectUnknownKeys(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [key, value] : params) {
    bool found = false;
    for (std::string_view k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      std::string accepted;
      for (std::string_view k : known) {
        if (!accepted.empty()) accepted += ", ";
        accepted += k;
      }
      return Status::InvalidArgument(
          "workload '" + name + "': unknown parameter '" + key +
          "' (accepted: " + (accepted.empty() ? "none" : accepted) + ")");
    }
  }
  return Status::OK();
}

}  // namespace gdr
