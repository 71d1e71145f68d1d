#ifndef SAPHYRA_TOOLS_CLI_FLAGS_H_
#define SAPHYRA_TOOLS_CLI_FLAGS_H_

// Strict parsing of numeric option values, shared by the command-line
// tools. A value is accepted only when the whole string is a number of
// the flag's type: `--threads two`, `--concurrency 4x` and `--seed 12abc`
// are rejected with a message on stderr rather than truncated to a
// prefix. Callers treat a false return as a usage error (exit 2).

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace saphyra {

/// Parse `val` as a base-10 unsigned integer that fits in T. On failure
/// prints "<flag> expects ..." to stderr and leaves *out unchanged.
template <typename T>
bool ParseUnsignedFlag(const char* flag, const char* val, T* out) {
  static_assert(std::is_unsigned_v<T>);
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(val, &end, 10);
  // strtoull skips leading blanks and negates a leading '-'; both would
  // let a malformed value through, so the first character must be a digit.
  if (!std::isdigit(static_cast<unsigned char>(val[0])) || *end != '\0' ||
      errno == ERANGE || parsed > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "%s expects a non-negative integer, got %s\n", flag,
                 val);
    return false;
  }
  *out = static_cast<T>(parsed);
  return true;
}

/// Parse `val` as a finite decimal number. On failure prints
/// "<flag> expects a number, got <val>" to stderr and leaves *out
/// unchanged.
inline bool ParseDoubleFlag(const char* flag, const char* val, double* out) {
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(val, &end);
  if (end == val || *end != '\0' || errno == ERANGE ||
      std::isspace(static_cast<unsigned char>(val[0])) ||
      !std::isfinite(parsed)) {
    std::fprintf(stderr, "%s expects a number, got %s\n", flag, val);
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace saphyra

#endif  // SAPHYRA_TOOLS_CLI_FLAGS_H_
