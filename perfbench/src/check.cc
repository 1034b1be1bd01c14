#include "check.h"

#include <cstdio>
#include <utility>

#include "common.h"

namespace perfbench {
namespace {

using pulse::Segment;

std::string Where(const Segment& s, const std::string& attr) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "(t=%.17g, key=%lld, attr=%s)",
                s.range.lo, static_cast<long long>(s.key), attr.c_str());
  return buf;
}

bool SamePolynomial(const pulse::Polynomial& a, const pulse::Polynomial& b) {
  if (a.degree() != b.degree() || a.IsZero() != b.IsZero()) return false;
  for (size_t i = 0; i <= a.degree(); ++i) {
    if (a.coeff(i) != b.coeff(i)) return false;
  }
  return true;
}

// First difference between two segments at the same position; empty
// when identical.
std::string Diff(const Segment& e, const Segment& a) {
  if (e.key != a.key) {
    return Where(e, "key") + " key " + std::to_string(a.key) + " vs " +
           std::to_string(e.key);
  }
  if (e.range.lo != a.range.lo || e.range.hi != a.range.hi ||
      e.range.lo_open != a.range.lo_open ||
      e.range.hi_open != a.range.hi_open) {
    return Where(e, "range") + " range " + a.range.ToString() + " vs " +
           e.range.ToString();
  }
  for (const auto& [name, poly] : e.attributes) {
    auto it = a.attributes.find(name);
    if (it == a.attributes.end()) return Where(e, name) + " missing";
    if (!SamePolynomial(poly, it->second)) {
      return Where(e, name) + " polynomial " + it->second.ToString() +
             " vs " + poly.ToString();
    }
  }
  for (const auto& [name, poly] : a.attributes) {
    if (e.attributes.count(name) == 0) return Where(e, name) + " unexpected";
  }
  for (const auto& [name, value] : e.unmodeled) {
    auto it = a.unmodeled.find(name);
    if (it == a.unmodeled.end() || it->second != value) {
      return Where(e, name) + " unmodeled value differs";
    }
  }
  if (a.unmodeled.size() != e.unmodeled.size()) {
    return Where(e, "unmodeled") + " unmodeled attribute count differs";
  }
  return "";
}

}  // namespace

void ZeroIds(std::vector<Segment>* segments) {
  for (Segment& s : *segments) s.id = 0;
}

std::string FirstDivergence(const std::vector<Segment>& expected,
                            const std::vector<Segment>& actual) {
  const size_t n = std::min(expected.size(), actual.size());
  for (size_t i = 0; i < n; ++i) {
    std::string d = Diff(expected[i], actual[i]);
    if (!d.empty()) return "segment " + std::to_string(i) + " " + d;
  }
  if (expected.size() != actual.size()) {
    const Segment& at = expected.size() > n ? expected[n] : actual[n];
    return "segment " + std::to_string(n) + " " + Where(at, "count") +
           " output count " + std::to_string(actual.size()) + " vs " +
           std::to_string(expected.size());
  }
  return "";
}

bool CheckOutputs(const std::string& rung, size_t session,
                  std::vector<Segment> expected, std::vector<Segment> actual) {
  ZeroIds(&expected);
  ZeroIds(&actual);
  const std::string d = FirstDivergence(expected, actual);
  if (d.empty()) return true;
  ledger().Mismatch(rung + " session " + std::to_string(session) + ": " + d);
  return false;
}

bool SameAggregate(const pulse::store::RangeAggregate& a,
                   const pulse::store::RangeAggregate& b) {
  return a.count == b.count && a.coverage == b.coverage &&
         a.integral == b.integral && a.sum == b.sum && a.min == b.min &&
         a.max == b.max && a.t_lo == b.t_lo && a.t_hi == b.t_hi;
}

}  // namespace perfbench
