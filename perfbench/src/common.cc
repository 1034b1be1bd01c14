#include "common.h"

#include <cstdio>

namespace perfbench {

Ledger& ledger() {
  static Ledger instance;
  return instance;
}

void Ledger::Fail(uint64_t n, const std::string& what) {
  failed_ += n;
  std::lock_guard<std::mutex> lock(mu_);
  if (!fail_reported_) {
    fail_reported_ = true;
    std::fprintf(stderr, "perfbench: first failure: %s\n", what.c_str());
  }
}

void Ledger::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!mismatched_) {
    mismatched_ = true;
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 what.c_str());
  }
}

bool Ledger::correct() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !mismatched_;
}

}  // namespace perfbench
