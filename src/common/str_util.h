#ifndef PRORE_COMMON_STR_UTIL_H_
#define PRORE_COMMON_STR_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace prore {

/// Joins `parts` with `sep` ("a", "b" -> "a,b").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace prore

#endif  // PRORE_COMMON_STR_UTIL_H_
