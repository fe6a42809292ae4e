#ifndef BIOPERA_STORE_CODEC_H_
#define BIOPERA_STORE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "ocr/value.h"

namespace biopera {

/// Little-endian fixed-width and varint primitives used by the WAL, the
/// snapshot format, and record serialization.

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
void PutVarint64(std::string* dst, uint64_t v);
/// Appends varint length followed by the bytes.
void PutLengthPrefixed(std::string* dst, std::string_view s);

/// Each Get* consumes from the front of `*input`; returns false on
/// malformed or truncated input (leaving *input unspecified).
bool GetFixed32(std::string_view* input, uint32_t* v);
bool GetFixed64(std::string_view* input, uint64_t* v);
bool GetVarint64(std::string_view* input, uint64_t* v);
bool GetLengthPrefixed(std::string_view* input, std::string_view* s);

// ---------------------------------------------------------------------------
// Binary ocr::Value codec
// ---------------------------------------------------------------------------
//
// Tag-prefixed, length-delimited wire form (see docs/STORE.md):
//   0 null | 1 false | 2 true | 3 int (zigzag varint)
//   4 double (IEEE-754 bits, fixed64) | 5 string (lenprefix)
//   6 list (varint count, then elements) | 7 map (varint count, then
//     lenprefix key + element pairs)
// Unlike the text form, doubles round-trip bit-exactly.

/// Appends the binary encoding of `v` to `*dst`.
void EncodeValue(const ocr::Value& v, std::string* dst);

/// Decodes one value from the front of `*input`. Returns false on
/// malformed, truncated, or too deeply nested input — never crashes on
/// hostile bytes (nesting is capped at kMaxValueDepth).
bool DecodeValue(std::string_view* input, ocr::Value* out);

inline constexpr int kMaxValueDepth = 64;

/// Engine persistence records (instance and provenance rows) are one
/// kBinaryValueMarker byte followed by the binary encoding. Config and
/// template rows stay text and never pass through this framing.
inline constexpr char kBinaryValueMarker = '\x01';

/// Marker byte + binary encoding.
std::string EncodeValueRecord(const ocr::Value& v);

/// Inverse of EncodeValueRecord. A record without the marker, or whose
/// binary body is malformed or has trailing bytes, is Corruption.
Result<ocr::Value> DecodeValueRecord(std::string_view record);

/// Field readers for a decoded record map: the value at `key`, or the
/// default when it is absent or of another type (a number of the other
/// kind converts).
int64_t RecordInt(const ocr::Value::Map& rec, const std::string& key,
                  int64_t dflt);
double RecordDouble(const ocr::Value::Map& rec, const std::string& key,
                    double dflt);
std::string RecordString(const ocr::Value::Map& rec, const std::string& key);

}  // namespace biopera

#endif  // BIOPERA_STORE_CODEC_H_
