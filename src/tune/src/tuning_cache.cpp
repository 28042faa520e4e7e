#include "ftm/tune/tuning_cache.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ftm/util/assert.hpp"

namespace ftm::tune {

namespace {

// --- Minimal JSON reader -----------------------------------------------
// Only what the cache format needs (objects, arrays, strings, unsigned
// integers, bools). Strict: any malformed input fails the whole parse,
// which load() maps to LoadStatus::ParseError.

struct JValue {
  enum class Kind { Null, Bool, Uint, Str, Arr, Obj };
  Kind kind = Kind::Null;
  bool b = false;
  std::uint64_t u = 0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  const JValue* get(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

struct Parser {
  const char* p;
  const char* end;
  bool ok = true;

  explicit Parser(const std::string& s)
      : p(s.data()), end(s.data() + s.size()) {}

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool literal(const char* s) {
    const std::size_t n = std::strlen(s);
    if (static_cast<std::size_t>(end - p) >= n &&
        std::memcmp(p, s, n) == 0) {
      p += n;
      return true;
    }
    ok = false;
    return false;
  }

  JValue parse_value() {
    JValue v;
    skip_ws();
    if (p >= end) {
      ok = false;
      return v;
    }
    switch (*p) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return parse_string();
      case 't':
        if (literal("true")) {
          v.kind = JValue::Kind::Bool;
          v.b = true;
        }
        return v;
      case 'f':
        if (literal("false")) {
          v.kind = JValue::Kind::Bool;
          v.b = false;
        }
        return v;
      case 'n':
        literal("null");
        return v;
      default: return parse_uint();
    }
  }

  JValue parse_uint() {
    JValue v;
    skip_ws();
    const char* start = p;
    while (p < end && std::isdigit(static_cast<unsigned char>(*p))) {
      v.u = v.u * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    if (p == start) {
      ok = false;
      return v;
    }
    v.kind = JValue::Kind::Uint;
    return v;
  }

  JValue parse_string() {
    JValue v;
    if (!consume('"')) return v;
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) ++p;  // keep escaped char verbatim
      v.str.push_back(*p++);
    }
    if (p >= end) {
      ok = false;
      return v;
    }
    ++p;  // closing quote
    v.kind = JValue::Kind::Str;
    return v;
  }

  JValue parse_array() {
    JValue v;
    v.kind = JValue::Kind::Arr;
    if (!consume('[')) return v;
    skip_ws();
    if (p < end && *p == ']') {
      ++p;
      return v;
    }
    for (;;) {
      v.arr.push_back(parse_value());
      if (!ok) return v;
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      consume(']');
      return v;
    }
  }

  JValue parse_object() {
    JValue v;
    v.kind = JValue::Kind::Obj;
    if (!consume('{')) return v;
    skip_ws();
    if (p < end && *p == '}') {
      ++p;
      return v;
    }
    for (;;) {
      JValue key = parse_string();
      if (!ok || !consume(':')) return v;
      JValue val = parse_value();
      if (!ok) return v;
      v.obj.emplace_back(std::move(key.str), std::move(val));
      skip_ws();
      if (p < end && *p == ',') {
        ++p;
        continue;
      }
      consume('}');
      return v;
    }
  }
};

bool parse_document(const std::string& text, JValue* out) {
  Parser ps(text);
  *out = ps.parse_value();
  ps.skip_ws();
  return ps.ok && ps.p == ps.end && out->kind == JValue::Kind::Obj;
}

// --- Field helpers ------------------------------------------------------

bool read_uint(const JValue& obj, const char* key, std::uint64_t* out) {
  const JValue* v = obj.get(key);
  if (v == nullptr || v->kind != JValue::Kind::Uint) return false;
  *out = v->u;
  return true;
}

template <typename T>
bool read_size(const JValue& obj, const char* key, T* out) {
  std::uint64_t u = 0;
  if (!read_uint(obj, key, &u)) return false;
  *out = static_cast<T>(u);
  return true;
}

bool strategy_from_string(const std::string& s, core::Strategy* out) {
  if (s == "tgemm") *out = core::Strategy::TGemm;
  else if (s == "ftimm-M") *out = core::Strategy::ParallelM;
  else if (s == "ftimm-K") *out = core::Strategy::ParallelK;
  else return false;
  return true;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

bool parse_entry(const JValue& e, TunedEntry* out) {
  TunedEntry t;
  const JValue* strat = e.get("strategy");
  if (strat == nullptr || strat->kind != JValue::Kind::Str ||
      !strategy_from_string(strat->str, &t.strategy)) {
    return false;
  }
  if (!read_size(e, "mb", &t.cls.mb) || !read_size(e, "nb", &t.cls.nb) ||
      !read_size(e, "kb", &t.cls.kb) ||
      !read_size(e, "cores", &t.cls.cores) ||
      !read_size(e, "dtype", &t.cls.dtype) ||
      !read_size(e, "m", &t.m) || !read_size(e, "n", &t.n) ||
      !read_size(e, "k", &t.k) ||
      !read_size(e, "dma_buffers", &t.dma_buffers) ||
      !read_uint(e, "tuned_cycles", &t.tuned_cycles) ||
      !read_uint(e, "default_cycles", &t.default_cycles) ||
      !read_uint(e, "seed", &t.seed)) {
    return false;
  }
  const JValue* blocks = e.get("blocks");
  if (blocks == nullptr || blocks->kind != JValue::Kind::Obj) return false;
  const JValue& b = *blocks;
  switch (t.strategy) {
    case core::Strategy::ParallelM:
      return read_size(b, "kg", &t.mblocks.kg) &&
             read_size(b, "ng", &t.mblocks.ng) &&
             read_size(b, "ma", &t.mblocks.ma) &&
             read_size(b, "na", &t.mblocks.na) &&
             read_size(b, "ka", &t.mblocks.ka) &&
             read_size(b, "ms", &t.mblocks.ms) && (*out = t, true);
    case core::Strategy::ParallelK:
      return read_size(b, "mg", &t.kblocks.mg) &&
             read_size(b, "ng", &t.kblocks.ng) &&
             read_size(b, "ma", &t.kblocks.ma) &&
             read_size(b, "na", &t.kblocks.na) &&
             read_size(b, "ka", &t.kblocks.ka) &&
             read_size(b, "ms", &t.kblocks.ms) &&
             read_size(b, "reduce_rows", &t.kblocks.reduce_rows) &&
             (*out = t, true);
    case core::Strategy::TGemm:
      return read_size(b, "mg", &t.tblocks.mg) &&
             read_size(b, "kg", &t.tblocks.kg) &&
             read_size(b, "na", &t.tblocks.na) &&
             read_size(b, "ms", &t.tblocks.ms) && (*out = t, true);
    default: return false;
  }
}

void write_entry(std::ostringstream& os, const TunedEntry& t) {
  os << "    {\"class\": \"" << t.cls.key() << "\", \"mb\": " << t.cls.mb
     << ", \"nb\": " << t.cls.nb << ", \"kb\": " << t.cls.kb
     << ", \"cores\": " << t.cls.cores << ", \"dtype\": " << t.cls.dtype
     << ",\n     \"strategy\": \""
     << core::to_string(t.strategy) << "\", \"m\": " << t.m
     << ", \"n\": " << t.n << ", \"k\": " << t.k
     << ", \"dma_buffers\": " << t.dma_buffers
     << ",\n     \"tuned_cycles\": " << t.tuned_cycles
     << ", \"default_cycles\": " << t.default_cycles
     << ", \"seed\": " << t.seed << ",\n     \"blocks\": {";
  switch (t.strategy) {
    case core::Strategy::ParallelM:
      os << "\"kg\": " << t.mblocks.kg << ", \"ng\": " << t.mblocks.ng
         << ", \"ma\": " << t.mblocks.ma << ", \"na\": " << t.mblocks.na
         << ", \"ka\": " << t.mblocks.ka << ", \"ms\": " << t.mblocks.ms;
      break;
    case core::Strategy::ParallelK:
      os << "\"mg\": " << t.kblocks.mg << ", \"ng\": " << t.kblocks.ng
         << ", \"ma\": " << t.kblocks.ma << ", \"na\": " << t.kblocks.na
         << ", \"ka\": " << t.kblocks.ka << ", \"ms\": " << t.kblocks.ms
         << ", \"reduce_rows\": " << t.kblocks.reduce_rows;
      break;
    default:
      os << "\"mg\": " << t.tblocks.mg << ", \"kg\": " << t.tblocks.kg
         << ", \"na\": " << t.tblocks.na << ", \"ms\": " << t.tblocks.ms;
      break;
  }
  os << "}}";
}

}  // namespace

const char* to_string(LoadStatus s) {
  switch (s) {
    case LoadStatus::Ok: return "ok";
    case LoadStatus::FileMissing: return "file-missing";
    case LoadStatus::ParseError: return "parse-error";
    case LoadStatus::SchemaMismatch: return "schema-mismatch";
    case LoadStatus::MachineMismatch: return "machine-mismatch";
  }
  return "?";
}

TuningCache::TuningCache(const isa::MachineConfig& mc)
    : mc_(mc), machine_hash_(machine_hash(mc)) {}

std::string TuningCache::serialize() const {
  std::ostringstream os;
  os << "{\n  \"schema\": " << kSchemaVersion << ",\n  \"machine\": \""
     << hash_hex(machine_hash_) << "\",\n  \"entries\": [";
  {
    const std::shared_lock<std::shared_mutex> lock(mu_);
    bool first = true;
    for (const auto& [cls, e] : entries_) {
      os << (first ? "\n" : ",\n");
      write_entry(os, e);
      first = false;
    }
  }
  os << "\n  ]\n}\n";
  return os.str();
}

LoadStatus TuningCache::deserialize(const std::string& text) {
  JValue doc;
  if (!parse_document(text, &doc)) return LoadStatus::ParseError;
  std::uint64_t schema = 0;
  if (!read_uint(doc, "schema", &schema)) return LoadStatus::ParseError;
  if (schema != static_cast<std::uint64_t>(kSchemaVersion)) {
    return LoadStatus::SchemaMismatch;
  }
  const JValue* machine = doc.get("machine");
  if (machine == nullptr || machine->kind != JValue::Kind::Str) {
    return LoadStatus::ParseError;
  }
  if (machine->str != hash_hex(machine_hash_)) {
    return LoadStatus::MachineMismatch;
  }
  const JValue* arr = doc.get("entries");
  if (arr == nullptr || arr->kind != JValue::Kind::Arr) {
    return LoadStatus::ParseError;
  }
  // Stage first: a bad entry anywhere rejects the whole file, so a
  // partially-written cache can never half-apply.
  std::vector<TunedEntry> staged;
  staged.reserve(arr->arr.size());
  for (const JValue& e : arr->arr) {
    TunedEntry t;
    if (e.kind != JValue::Kind::Obj || !parse_entry(e, &t)) {
      return LoadStatus::ParseError;
    }
    staged.push_back(t);
  }
  {
    const std::unique_lock<std::shared_mutex> lock(mu_);
    for (const TunedEntry& t : staged) entries_[t.cls] = t;
  }
  return LoadStatus::Ok;
}

LoadStatus TuningCache::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return LoadStatus::FileMissing;
  std::ostringstream buf;
  buf << in.rdbuf();
  return deserialize(buf.str());
}

bool TuningCache::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out << serialize();
  return static_cast<bool>(out);
}

void TuningCache::put(const TunedEntry& e) {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  entries_[e.cls] = e;
}

std::optional<TunedEntry> TuningCache::find(const ShapeClass& cls) const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  const auto it = entries_.find(cls);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::vector<TunedEntry> TuningCache::entries() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<TunedEntry> out;
  out.reserve(entries_.size());
  for (const auto& [cls, e] : entries_) out.push_back(e);
  return out;
}

std::size_t TuningCache::size() const {
  const std::shared_lock<std::shared_mutex> lock(mu_);
  return entries_.size();
}

void TuningCache::clear() {
  const std::unique_lock<std::shared_mutex> lock(mu_);
  entries_.clear();
}

std::optional<core::GemmPlan> TuningCache::lookup(
    std::size_t m, std::size_t n, std::size_t k,
    const core::FtimmOptions& opt) const {
  const auto entry = find(ShapeClass::of(m, n, k, opt.cores, opt.dtype));
  if (!entry) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  core::GemmPlan plan;
  plan.strategy = entry->strategy;
  plan.cores = opt.cores;
  plan.tuned = true;
  plan.dma_buffers = entry->dma_buffers;
  try {
    switch (entry->strategy) {
      case core::Strategy::ParallelM:
        plan.mblocks =
            core::adjust_m_blocks(entry->mblocks, m, n, k, mc_, opt.cores);
        break;
      case core::Strategy::ParallelK:
        plan.kblocks =
            core::adjust_k_blocks(entry->kblocks, m, n, k, mc_, opt.cores);
        break;
      case core::Strategy::TGemm:
        plan.tblocks = entry->tblocks;
        core::check_t_blocks(plan.tblocks, mc_);
        break;
      default: return std::nullopt;
    }
  } catch (const ContractViolation&) {
    // The class's tuned seed cannot be bound to this member shape;
    // degrade to the analytic default rather than fail the GEMM.
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return plan;
}

}  // namespace ftm::tune
