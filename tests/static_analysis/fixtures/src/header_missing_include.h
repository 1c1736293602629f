// Seeded violation [header-hygiene]: the header uses size_t without
// including <cstddef> directly, so it only compiles after some other
// header pulled it in.
#ifndef JISC_HEADER_MISSING_INCLUDE_H_
#define JISC_HEADER_MISSING_INCLUDE_H_

inline size_t Zero() { return 0; }

#endif  // JISC_HEADER_MISSING_INCLUDE_H_
