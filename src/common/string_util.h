#ifndef DBIM_COMMON_STRING_UTIL_H_
#define DBIM_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dbim {

/// Splits `s` on `sep`, keeping empty pieces ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Joins the pieces with `sep` between them.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Parses `s` as a base-10 unsigned integer no larger than `max`: digits
/// only, no sign, whitespace or trailing characters. Returns false, leaving
/// *out untouched, on anything else (empty, non-numeric, overflow, > max).
bool ParseUint(std::string_view s, uint64_t max, uint64_t* out);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace dbim

#endif  // DBIM_COMMON_STRING_UTIL_H_
