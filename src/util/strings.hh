/**
 * @file
 * Small string helpers shared by the text emitters.
 */

#ifndef GANACC_UTIL_STRINGS_HH
#define GANACC_UTIL_STRINGS_HH

#include <charconv>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ganacc {
namespace util {

/**
 * Escape a string for inclusion inside a JSON string literal:
 * backslash, double quote and every control character below 0x20
 * (named escapes where JSON has them, \u00XX otherwise). Bytes above
 * 0x7f pass through untouched — JSON permits raw UTF-8.
 */
inline std::string
escapeJson(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char ch : s) {
        unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += ch;
            }
        }
    }
    return out;
}

/**
 * Append the decimal text of an integer to `out` — the same digits
 * an ostream prints, without a stream or a temporary string.
 */
template <typename Int>
inline void
appendInt(std::string &out, Int v)
{
    static_assert(std::is_integral_v<Int>, "appendInt takes integers");
    char buf[24]; // fits the 20 digits of UINT64_MAX and a sign
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, std::size_t(res.ptr - buf));
}

/**
 * Text assembled in a fixed stack buffer, for encoders whose output
 * has a small static bound. Appending allocates nothing, integers
 * print as an ostream prints them, and str() returns one exactly
 * sized string, so callers that keep the result (cache keys, stored
 * expectations) carry no slack capacity. Throws std::length_error
 * past N bytes.
 */
template <std::size_t N>
class FixedText
{
  public:
    FixedText &
    operator<<(std::string_view s)
    {
        if (s.size() > N - len_)
            throw std::length_error("FixedText: buffer too small");
        std::memcpy(buf_ + len_, s.data(), s.size());
        len_ += s.size();
        return *this;
    }

    FixedText &operator<<(char c) { return *this << std::string_view(&c, 1); }

    template <typename Int,
              std::enable_if_t<std::is_integral_v<Int> &&
                                   !std::is_same_v<Int, bool> &&
                                   !std::is_same_v<Int, char>,
                               int> = 0>
    FixedText &
    operator<<(Int v)
    {
        const auto res = std::to_chars(buf_ + len_, buf_ + N, v);
        if (res.ec != std::errc())
            throw std::length_error("FixedText: buffer too small");
        len_ = std::size_t(res.ptr - buf_);
        return *this;
    }

    std::string str() const { return std::string(buf_, len_); }

  private:
    char buf_[N];
    std::size_t len_ = 0;
};

} // namespace util
} // namespace ganacc

#endif // GANACC_UTIL_STRINGS_HH
