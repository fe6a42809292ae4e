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

/// Decodes one value from the front of `*input` into `*out`, replacing what
/// it held; lists and maps are built in place. Returns false on malformed,
/// truncated, or too deeply nested input (leaving *out unspecified) —
/// never crashes on hostile bytes: nesting is capped at kMaxValueDepth, and
/// a list reserves no more elements than the rest of the input can hold.
/// Map keys arrive in ascending order from EncodeValue; out-of-order or
/// repeated keys decode as `map[key] = value` would, the last one winning.
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

/// Reads a map record (EncodeValueRecord of a map) one field at a time, so a
/// reader decodes each field's value where it belongs instead of building
/// the map first:
///
///   MapRecordReader reader(record);
///   std::string_view key;
///   while (reader.NextKey(&key) && reader.ReadValue(SlotFor(key))) {...}
///   BIOPERA_RETURN_IF_ERROR(reader.status());
///
/// Fields come in the record's order; a key may repeat in hostile bytes,
/// and a reader that assigns each field keeps the last, as DecodeValue does.
class MapRecordReader {
 public:
  explicit MapRecordReader(std::string_view record);
  /// The next field's key (a view into the record); false after the last
  /// field or on an error.
  bool NextKey(std::string_view* key);
  /// Decodes the value of the field NextKey just returned into `*out`,
  /// replacing what it held; false on an error.
  bool ReadValue(ocr::Value* out);
  /// Corruption when the record lacks the marker, is not a map, is
  /// malformed or has bytes after the map; otherwise OK.
  Status status() const;

 private:
  std::string_view input_;
  uint64_t remaining_ = 0;  // fields not yet read
  const char* error_ = nullptr;
};

/// A number as an integer: an int as it is, a double truncated toward
/// zero; anything else is `dflt`.
int64_t NumberAsInt(const ocr::Value& v, int64_t dflt);

/// Field readers for a decoded record map: the value at `key`, or the
/// default when it is absent or of another type (a number of the other
/// kind converts as NumberAsInt does).
int64_t RecordInt(const ocr::Value::Map& rec, const std::string& key,
                  int64_t dflt);
double RecordDouble(const ocr::Value::Map& rec, const std::string& key,
                    double dflt);
std::string RecordString(const ocr::Value::Map& rec, const std::string& key);

}  // namespace biopera

#endif  // BIOPERA_STORE_CODEC_H_
