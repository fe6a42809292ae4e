#include "store/codec.h"

#include <algorithm>
#include <cstring>
#include <tuple>

namespace biopera {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s);
}

bool GetFixed32(std::string_view* input, uint32_t* v) {
  if (input->size() < 4) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(input->data());
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) |
       (static_cast<uint32_t>(p[3]) << 24);
  input->remove_prefix(4);
  return true;
}

bool GetFixed64(std::string_view* input, uint64_t* v) {
  uint32_t lo, hi;
  if (!GetFixed32(input, &lo) || !GetFixed32(input, &hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool GetVarint64(std::string_view* input, uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && !input->empty(); shift += 7) {
    uint64_t byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *v = result;
      return true;
    }
  }
  return false;
}

bool GetLengthPrefixed(std::string_view* input, std::string_view* s) {
  uint64_t len;
  if (!GetVarint64(input, &len)) return false;
  if (input->size() < len) return false;
  *s = input->substr(0, len);
  input->remove_prefix(len);
  return true;
}

namespace {

constexpr char kMalformed[] = "malformed binary value record";

enum ValueTag : char {
  kTagNull = 0,
  kTagFalse = 1,
  kTagTrue = 2,
  kTagInt = 3,
  kTagDouble = 4,
  kTagString = 5,
  kTagList = 6,
  kTagMap = 7,
};

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Decodes one value into `*out`, replacing whatever it held: containers
/// are built in place, element by element, with no temporary per element.
bool DecodeValueImpl(std::string_view* input, ocr::Value* out, int depth) {
  if (depth > kMaxValueDepth) return false;
  if (input->empty()) return false;
  char tag = input->front();
  input->remove_prefix(1);
  switch (tag) {
    case kTagNull:
      *out = ocr::Value();
      return true;
    case kTagFalse:
      *out = ocr::Value(false);
      return true;
    case kTagTrue:
      *out = ocr::Value(true);
      return true;
    case kTagInt: {
      uint64_t raw;
      if (!GetVarint64(input, &raw)) return false;
      *out = ocr::Value(ZigZagDecode(raw));
      return true;
    }
    case kTagDouble: {
      uint64_t bits;
      if (!GetFixed64(input, &bits)) return false;
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&d, &bits, sizeof(d));
      *out = ocr::Value(d);
      return true;
    }
    case kTagString: {
      std::string_view s;
      if (!GetLengthPrefixed(input, &s)) return false;
      *out = ocr::Value(std::string(s));
      return true;
    }
    case kTagList: {
      uint64_t count;
      if (!GetVarint64(input, &count)) return false;
      // Every element takes at least its tag byte, so a count the rest of
      // the input cannot hold reserves no more than that input's length;
      // decoding then fails when the input runs out.
      *out = ocr::Value(ocr::Value::List());
      ocr::Value::List& list = out->AsList();
      list.reserve(std::min<uint64_t>(count, input->size()));
      for (uint64_t i = 0; i < count; ++i) {
        if (!DecodeValueImpl(input, &list.emplace_back(), depth + 1)) {
          return false;
        }
      }
      return true;
    }
    case kTagMap: {
      uint64_t count;
      if (!GetVarint64(input, &count)) return false;
      *out = ocr::Value(ocr::Value::Map());
      ocr::Value::Map& map = out->AsMap();
      for (uint64_t i = 0; i < count; ++i) {
        std::string_view key;
        if (!GetLengthPrefixed(input, &key)) return false;
        // The encoder writes keys in ascending order, so each one lands at
        // the end. Keys out of order or repeated (bytes from elsewhere)
        // take the slow path, where the last of equal keys wins.
        auto slot =
            map.empty() || std::string_view(map.rbegin()->first) < key
                ? map.emplace_hint(map.end(), std::piecewise_construct,
                                   std::forward_as_tuple(key),
                                   std::forward_as_tuple())
                : map.try_emplace(std::string(key)).first;
        if (!DecodeValueImpl(input, &slot->second, depth + 1)) return false;
      }
      return true;
    }
    default:
      return false;
  }
}

}  // namespace

void EncodeValue(const ocr::Value& v, std::string* dst) {
  if (v.is_null()) {
    dst->push_back(kTagNull);
  } else if (v.is_bool()) {
    dst->push_back(v.AsBool() ? kTagTrue : kTagFalse);
  } else if (v.is_int()) {
    dst->push_back(kTagInt);
    PutVarint64(dst, ZigZagEncode(v.AsInt()));
  } else if (v.is_double()) {
    dst->push_back(kTagDouble);
    double d = v.AsDouble();
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    PutFixed64(dst, bits);
  } else if (v.is_string()) {
    dst->push_back(kTagString);
    PutLengthPrefixed(dst, v.AsString());
  } else if (v.is_list()) {
    dst->push_back(kTagList);
    PutVarint64(dst, v.AsList().size());
    for (const ocr::Value& elem : v.AsList()) EncodeValue(elem, dst);
  } else {
    dst->push_back(kTagMap);
    PutVarint64(dst, v.AsMap().size());
    for (const auto& [key, elem] : v.AsMap()) {
      PutLengthPrefixed(dst, key);
      EncodeValue(elem, dst);
    }
  }
}

bool DecodeValue(std::string_view* input, ocr::Value* out) {
  return DecodeValueImpl(input, out, 0);
}

std::string EncodeValueRecord(const ocr::Value& v) {
  std::string out;
  out.push_back(kBinaryValueMarker);
  EncodeValue(v, &out);
  return out;
}

Result<ocr::Value> DecodeValueRecord(std::string_view record) {
  if (record.empty() || record.front() != kBinaryValueMarker) {
    return Status::Corruption("value record lacks the binary marker");
  }
  record.remove_prefix(1);
  ocr::Value v;
  if (!DecodeValue(&record, &v) || !record.empty()) {
    return Status::Corruption(kMalformed);
  }
  return v;
}

MapRecordReader::MapRecordReader(std::string_view record) : input_(record) {
  if (input_.empty() || input_.front() != kBinaryValueMarker) {
    error_ = "value record lacks the binary marker";
    return;
  }
  input_.remove_prefix(1);
  if (input_.empty() || input_.front() != kTagMap) {
    error_ = "value record is not a map";
    return;
  }
  input_.remove_prefix(1);
  if (!GetVarint64(&input_, &remaining_)) error_ = kMalformed;
}

bool MapRecordReader::NextKey(std::string_view* key) {
  if (error_ != nullptr) return false;
  if (remaining_ == 0) {
    if (!input_.empty()) error_ = "trailing bytes after the value record";
    return false;
  }
  --remaining_;
  if (!GetLengthPrefixed(&input_, key)) {
    error_ = kMalformed;
    return false;
  }
  return true;
}

bool MapRecordReader::ReadValue(ocr::Value* out) {
  // A field's value nests one level under the record's map.
  if (error_ == nullptr && !DecodeValueImpl(&input_, out, 1)) {
    error_ = kMalformed;
  }
  return error_ == nullptr;
}

Status MapRecordReader::status() const {
  return error_ == nullptr ? Status::OK() : Status::Corruption(error_);
}

int64_t NumberAsInt(const ocr::Value& v, int64_t dflt) {
  if (!v.is_number()) return dflt;
  return v.is_int() ? v.AsInt() : static_cast<int64_t>(v.AsDouble());
}

int64_t RecordInt(const ocr::Value::Map& rec, const std::string& key,
                  int64_t dflt) {
  auto it = rec.find(key);
  return it == rec.end() ? dflt : NumberAsInt(it->second, dflt);
}

double RecordDouble(const ocr::Value::Map& rec, const std::string& key,
                    double dflt) {
  auto it = rec.find(key);
  if (it == rec.end() || !it->second.is_number()) return dflt;
  return it->second.AsDouble();
}

std::string RecordString(const ocr::Value::Map& rec, const std::string& key) {
  auto it = rec.find(key);
  return it != rec.end() && it->second.is_string() ? it->second.AsString()
                                                   : std::string();
}

}  // namespace biopera
