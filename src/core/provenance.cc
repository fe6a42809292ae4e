#include "core/provenance.h"

#include <string_view>

#include "common/strings.h"
#include "obs/json.h"
#include "store/codec.h"

namespace biopera::core {

using ocr::Value;

namespace {

std::string LineageKey(const std::string& path, int attempt,
                       const char* half) {
  return StrFormat("%s/a%04d/%s", path.c_str(), attempt, half);
}

/// Puts `descriptors` under `field` as a map of strings (not when empty).
void PutDescriptors(const char* field, const Descriptors& descriptors,
                    Value::Map* rec) {
  if (descriptors.empty()) return;
  Value::Map map;
  for (const auto& [key, desc] : descriptors) map[key] = Value(desc);
  (*rec)[field] = Value(std::move(map));
}

/// The string entries of the map under `field`, in key order.
void CopyDescriptors(const Value::Map& rec, const char* field,
                     Descriptors* dst) {
  auto it = rec.find(field);
  if (it == rec.end() || !it->second.is_map()) return;
  for (const auto& [key, value] : it->second.AsMap()) {
    if (value.is_string()) dst->emplace_back(key, value.AsString());
  }
}

}  // namespace

std::string DescribeValue(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  if (v.is_int()) return StrFormat("%lld", static_cast<long long>(v.AsInt()));
  if (v.is_double()) return v.ToText();
  if (v.is_string()) {
    const std::string& s = v.AsString();
    if (s.size() <= 48 && s.find_first_of("\n\r\t") == std::string::npos) {
      return s;
    }
    return StrFormat("len=%zu,fnv64=%016llx", s.size(),
                     static_cast<unsigned long long>(obs::Fnv1a64(s)));
  }
  if (v.is_map()) {
    const Value::Map& m = v.AsMap();
    auto first = m.find("first");
    auto last = m.find("last");
    if (m.size() == 2 && first != m.end() && last != m.end() &&
        first->second.is_int() && last->second.is_int()) {
      return StrFormat("[%lld,%lld)",
                       static_cast<long long>(first->second.AsInt()),
                       static_cast<long long>(last->second.AsInt()));
    }
    return StrFormat("map(%zu):fnv64=%016llx", m.size(),
                     static_cast<unsigned long long>(obs::Fnv1a64(v.ToText())));
  }
  return StrFormat("list(%zu):fnv64=%016llx", v.AsList().size(),
                   static_cast<unsigned long long>(obs::Fnv1a64(v.ToText())));
}

Descriptors DescribeValueMap(const Value::Map& m) {
  Descriptors out;
  out.reserve(m.size());
  for (const auto& [key, v] : m) out.emplace_back(key, DescribeValue(v));
  return out;
}

void PutLineageIn(Spaces* spaces, WriteBatch* batch,
                  const obs::LineageRecord& record) {
  Value::Map rec;
  rec["t_dispatch_us"] = Value(record.dispatch_us);
  rec["node"] = Value(record.node);
  if (!record.binding.empty()) rec["binding"] = Value(record.binding);
  PutDescriptors("in", record.inputs, &rec);
  PutDescriptors("param", record.params, &rec);
  spaces->BatchPutProvenance(batch, record.instance,
                             LineageKey(record.task, record.attempt, "in"),
                             EncodeValueRecord(Value(std::move(rec))));
}

void PutLineageOut(Spaces* spaces, WriteBatch* batch,
                   const obs::LineageRecord& record) {
  Value::Map rec;
  rec["outcome"] = Value(record.outcome);
  rec["t_finish_us"] = Value(record.finish_us);
  rec["cost_us"] = Value(record.cost_us);
  PutDescriptors("out", record.outputs, &rec);
  spaces->BatchPutProvenance(batch, record.instance,
                             LineageKey(record.task, record.attempt, "out"),
                             EncodeValueRecord(Value(std::move(rec))));
}

Result<std::vector<obs::LineageRecord>> LineageFromRows(
    const std::string& instance_id,
    std::span<const RecordStore::RowView> rows) {
  std::vector<obs::LineageRecord> out;
  // Provenance keys sort as (path, attempt, in-before-out), so one pass
  // pairs each attempt's rows.
  for (const auto& [key, text] : rows) {
    bool is_in = false;
    std::string_view base = key;
    if (base.size() > 3 && base.substr(base.size() - 3) == "/in") {
      is_in = true;
      base.remove_suffix(3);
    } else if (base.size() > 4 && base.substr(base.size() - 4) == "/out") {
      base.remove_suffix(4);
    } else {
      continue;  // unknown row shape (forward compatibility)
    }
    // base = "<path>/aNNNN"
    size_t slash = base.rfind('/');
    if (slash == std::string_view::npos || slash + 2 > base.size() ||
        base[slash + 1] != 'a') {
      continue;
    }
    long long attempt = 0;
    if (!ParseInt64(std::string(base.substr(slash + 2)), &attempt)) continue;
    std::string path(base.substr(0, slash));
    BIOPERA_ASSIGN_OR_RETURN(Value v, DecodeValueRecord(text));
    if (!v.is_map()) {
      return Status::Corruption("bad provenance row " + std::string(key));
    }
    const Value::Map& rec = v.AsMap();
    obs::LineageRecord* record = nullptr;
    if (!out.empty() && out.back().task == path &&
        out.back().attempt == static_cast<int>(attempt)) {
      record = &out.back();
    } else {
      out.emplace_back();
      record = &out.back();
      record->instance = instance_id;
      record->task = std::move(path);
      record->attempt = static_cast<int>(attempt);
    }
    if (is_in) {
      record->binding = RecordString(rec, "binding");
      record->node = RecordString(rec, "node");
      record->dispatch_us = RecordInt(rec, "t_dispatch_us", 0);
      CopyDescriptors(rec, "in", &record->inputs);
      CopyDescriptors(rec, "param", &record->params);
    } else {
      record->outcome = RecordString(rec, "outcome");
      record->finish_us = RecordInt(rec, "t_finish_us", -1);
      record->cost_us = RecordInt(rec, "cost_us", -1);
      CopyDescriptors(rec, "out", &record->outputs);
    }
  }
  return out;
}

}  // namespace biopera::core
