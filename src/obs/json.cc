#include "obs/json.h"

namespace biopera::obs {

void AppendJsonEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // first byte not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      case '\r': *out += "\\r"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                               kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(&out, s);
  return out;
}

void AppendJsonMember(std::string* out, std::string_view key,
                      std::string_view value) {
  *out += ",\"";
  AppendJsonEscaped(out, key);
  *out += "\":\"";
  AppendJsonEscaped(out, value);
  *out += '"';
}

std::string JsonQuote(std::string_view s) {
  return "\"" + JsonEscape(s) + "\"";
}

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

Result<std::string> JsonUnescape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (++i >= s.size()) {
      return Status::InvalidArgument("truncated escape in JSON string");
    }
    switch (s[i]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (i + 4 >= s.size()) {
          return Status::InvalidArgument("truncated \\u escape");
        }
        int code = 0;
        for (int k = 1; k <= 4; ++k) {
          int d = HexDigit(s[i + k]);
          if (d < 0) return Status::InvalidArgument("bad \\u escape digit");
          code = code * 16 + d;
        }
        i += 4;
        if (code <= 0x7f) {
          out.push_back(static_cast<char>(code));
        } else if (code <= 0x7ff) {
          out.push_back(static_cast<char>(0xc0 | (code >> 6)));
          out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
          return Status::InvalidArgument(
              "\\u escape beyond U+07FF unsupported");
        }
        break;
      }
      default:
        return Status::InvalidArgument("unknown escape in JSON string");
    }
  }
  return out;
}

std::string CsvField(std::string_view s) {
  bool needs_quotes = false;
  for (char c : s) {
    if (c == ',' || c == '"' || c == '\n' || c == '\r') {
      needs_quotes = true;
      break;
    }
  }
  if (!needs_quotes) return std::string(s);
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out.push_back(c);
  }
  out += "\"";
  return out;
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace biopera::obs
