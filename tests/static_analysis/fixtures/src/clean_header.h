// Clean near-miss [header-hygiene]: a self-contained header — the
// canonical guard for its path and a direct #include for every std symbol
// it uses.
#ifndef JISC_CLEAN_HEADER_H_
#define JISC_CLEAN_HEADER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

inline size_t CleanHeaderCount(const std::vector<std::string>& names,
                               uint64_t limit) {
  return names.size() < limit ? names.size() : static_cast<size_t>(limit);
}

#endif  // JISC_CLEAN_HEADER_H_
