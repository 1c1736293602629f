// Seeded violation [header-hygiene]: #pragma once instead of the canonical
// guard, and a guard that is not named after the header's path.
#pragma once
#ifndef JISC_WRONG_NAME_H_
#define JISC_WRONG_NAME_H_

inline int One() { return 1; }

#endif  // JISC_WRONG_NAME_H_
