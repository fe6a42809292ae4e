#ifndef BIOPERA_OBS_JSON_H_
#define BIOPERA_OBS_JSON_H_

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace biopera::obs {

/// Appends `s` to `*out` escaped for embedding inside a JSON string
/// literal (quotes, backslashes, control characters; non-ASCII bytes
/// pass through as UTF-8). Runs that need no escape are copied whole.
/// Shared by every JSON exporter — span JSONL, Chrome trace, run report,
/// lineage and run-diff — so all artifacts escape identically.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// `s` escaped as AppendJsonEscaped does, as a new string.
std::string JsonEscape(std::string_view s);

/// Appends `,"<key>":"<value>"` (both escaped): one string member of an
/// object that already has a member before it.
void AppendJsonMember(std::string* out, std::string_view key,
                      std::string_view value);

/// Appends the decimal digits of `value` to `*out` (std::to_chars: no
/// format string, no locale, no temporary).
template <typename Int>
void AppendInt(std::string* out, Int value) {
  char digits[24];  // any 64-bit value with its sign
  const std::to_chars_result r =
      std::to_chars(digits, digits + sizeof(digits), value);
  out->append(digits, r.ptr);
}

/// `s` escaped and wrapped in double quotes — a complete JSON string
/// literal.
std::string JsonQuote(std::string_view s);

/// Inverse of JsonEscape: decodes the contents of a JSON string literal
/// (without its surrounding quotes). Fails on truncated or malformed
/// escape sequences. `\uXXXX` escapes decode to UTF-8 for XXXX <= 0x7ff
/// (controls and Latin-1 are all the exporters emit); surrogate pairs
/// are rejected.
Result<std::string> JsonUnescape(std::string_view s);

/// Escapes one CSV field per RFC 4180: returned verbatim unless it
/// contains a comma, quote or newline, in which case it is quoted with
/// internal quotes doubled. Used by the timeline exporter so hostile
/// task/node names cannot break the column structure.
std::string CsvField(std::string_view s);

/// FNV-1a 64-bit hash — the content digest used by lineage output
/// descriptors (stable across platforms, cheap, and good enough to
/// detect divergent match sets).
uint64_t Fnv1a64(std::string_view s);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_JSON_H_
