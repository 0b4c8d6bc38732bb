#include "serve/model_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/check.h"

namespace hics {

static_assert(std::endian::native == std::endian::little,
              "the model-file reader/writer assumes a little-endian host");

namespace {

// ---------------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------------

std::array<std::uint32_t, 256> BuildCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

// ---------------------------------------------------------------------------
// Little-endian buffer writer / bounds-checked reader
// ---------------------------------------------------------------------------

class Writer {
 public:
  void U8(std::uint8_t v) { buf_.push_back(v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(std::uint64_t v) { Raw(&v, sizeof(v)); }
  void F64(double v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Raw(s.data(), s.size());
  }
  void F64Vec(const std::vector<double>& v) {
    U64(v.size());
    Raw(v.data(), v.size() * sizeof(double));
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> Take() { return std::move(buf_); }

 private:
  void Raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::uint8_t> buf_;
};

/// Cursor over an immutable byte span. Every accessor checks bounds and
/// returns DataLoss on overrun, so a truncated file can never read past
/// the buffer.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

  Status U8(std::uint8_t* v) { return Raw(v, sizeof(*v), "u8"); }
  Status U32(std::uint32_t* v) { return Raw(v, sizeof(*v), "u32"); }
  Status U64(std::uint64_t* v) { return Raw(v, sizeof(*v), "u64"); }
  Status F64(double* v) { return Raw(v, sizeof(*v), "f64"); }

  Status Str(std::string* out) {
    std::uint64_t len = 0;
    HICS_RETURN_NOT_OK(U64(&len));
    if (len > remaining()) return Truncated("string");
    out->assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  Status F64Vec(std::vector<double>* out) {
    std::uint64_t count = 0;
    HICS_RETURN_NOT_OK(U64(&count));
    if (count > remaining() / sizeof(double)) return Truncated("f64 array");
    out->resize(count);
    std::memcpy(out->data(), bytes_.data() + pos_, count * sizeof(double));
    pos_ += count * sizeof(double);
    return Status::OK();
  }

  Status Skip(std::size_t n, const char* what) {
    if (n > remaining()) return Truncated(what);
    pos_ += n;
    return Status::OK();
  }

  std::span<const std::uint8_t> Peek(std::size_t n) const {
    HICS_DCHECK(n <= remaining());
    return bytes_.subspan(pos_, n);
  }

 private:
  Status Raw(void* v, std::size_t n, const char* what) {
    if (n > remaining()) return Truncated(what);
    std::memcpy(v, bytes_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Truncated(const char* what) const {
    return Status::DataLoss("model file truncated while reading " +
                            std::string(what) + " at offset " +
                            std::to_string(pos_));
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> EncodeConfig(const HicsModelConfig& config) {
  Writer w;
  const HicsParams& p = config.search_params;
  w.U64(p.num_iterations);
  w.F64(p.alpha);
  w.U64(p.candidate_cutoff);
  w.U64(p.output_top_k);
  w.Str(p.statistical_test);
  w.U64(p.max_dimensionality);
  w.U8(p.prune_redundant ? 1 : 0);
  w.U64(p.seed);
  w.U64(1);  // num_threads slot, fixed; see the v2 note in model_io.h
  w.U8(1);   // reserved; see the v2 note in model_io.h
  w.U32(static_cast<std::uint32_t>(config.scorer.kind));
  w.U64(config.scorer.k);
  w.U32(static_cast<std::uint32_t>(config.aggregation));
  w.U64(config.num_shards);  // v2
  return w.Take();
}

Status DecodeConfig(Reader* r, HicsModelConfig* config) {
  HicsParams& p = config->search_params;
  std::uint64_t u64 = 0;
  std::uint8_t u8 = 0;
  std::uint32_t u32 = 0;
  HICS_RETURN_NOT_OK(r->U64(&u64));
  p.num_iterations = u64;
  HICS_RETURN_NOT_OK(r->F64(&p.alpha));
  HICS_RETURN_NOT_OK(r->U64(&u64));
  p.candidate_cutoff = u64;
  HICS_RETURN_NOT_OK(r->U64(&u64));
  p.output_top_k = u64;
  HICS_RETURN_NOT_OK(r->Str(&p.statistical_test));
  HICS_RETURN_NOT_OK(r->U64(&u64));
  p.max_dimensionality = u64;
  HICS_RETURN_NOT_OK(r->U8(&u8));
  p.prune_redundant = u8 != 0;
  HICS_RETURN_NOT_OK(r->U64(&p.seed));
  HICS_RETURN_NOT_OK(r->U64(&u64));  // num_threads slot, ignored
  HICS_RETURN_NOT_OK(r->U8(&u8));    // reserved byte, ignored
  HICS_RETURN_NOT_OK(r->U32(&u32));
  config->scorer.kind = static_cast<ScorerKind>(u32);
  HICS_RETURN_NOT_OK(r->U64(&u64));
  config->scorer.k = u64;
  HICS_RETURN_NOT_OK(r->U32(&u32));
  if (u32 > static_cast<std::uint32_t>(ScoreAggregation::kMax)) {
    return Status::DataLoss("invalid aggregation id " + std::to_string(u32));
  }
  config->aggregation = static_cast<ScoreAggregation>(u32);
  HICS_RETURN_NOT_OK(r->U64(&u64));  // v2: fit-time shard count
  if (u64 == 0) {
    return Status::DataLoss("config section has num_shards = 0");
  }
  config->num_shards = u64;
  return Status::OK();
}

std::vector<std::uint8_t> EncodeDataset(const Dataset& data) {
  Writer w;
  const std::size_t n = data.num_objects();
  const std::size_t d = data.num_attributes();
  w.U64(n);
  w.U64(d);
  for (std::size_t a = 0; a < d; ++a) {
    const std::vector<double>& column = data.Column(a);
    for (double v : column) w.F64(v);
  }
  w.U64(d);
  for (const std::string& name : data.attribute_names()) w.Str(name);
  const std::vector<bool>& labels = data.labels();
  w.U64(labels.size());
  for (bool b : labels) w.U8(b ? 1 : 0);
  return w.Take();
}

Status DecodeDataset(Reader* r, Dataset* out) {
  std::uint64_t n = 0;
  std::uint64_t d = 0;
  HICS_RETURN_NOT_OK(r->U64(&n));
  HICS_RETURN_NOT_OK(r->U64(&d));
  // Shape sanity before any allocation: a corrupted count must not drive
  // a multi-gigabyte resize. The payload itself bounds what is possible.
  if (d != 0 && n > r->remaining() / (d * sizeof(double))) {
    return Status::DataLoss("dataset shape " + std::to_string(n) + "x" +
                            std::to_string(d) +
                            " exceeds the section payload");
  }
  std::vector<std::vector<double>> columns(d);
  for (std::uint64_t a = 0; a < d; ++a) {
    columns[a].resize(n);
    if (n * sizeof(double) > r->remaining()) {
      return Status::DataLoss("model file truncated inside dataset column " +
                              std::to_string(a));
    }
    std::memcpy(columns[a].data(), r->Peek(n * sizeof(double)).data(),
                n * sizeof(double));
    HICS_RETURN_NOT_OK(r->Skip(n * sizeof(double), "dataset column"));
  }
  HICS_ASSIGN_OR_RETURN(Dataset data,
                        Dataset::FromColumns(std::move(columns)));
  std::uint64_t name_count = 0;
  HICS_RETURN_NOT_OK(r->U64(&name_count));
  if (name_count != d) {
    return Status::DataLoss("attribute-name count " +
                            std::to_string(name_count) +
                            " does not match " + std::to_string(d) +
                            " attributes");
  }
  std::vector<std::string> names(name_count);
  for (std::string& name : names) HICS_RETURN_NOT_OK(r->Str(&name));
  if (name_count > 0) HICS_RETURN_NOT_OK(data.SetAttributeNames(names));
  std::uint64_t label_count = 0;
  HICS_RETURN_NOT_OK(r->U64(&label_count));
  if (label_count != 0) {
    if (label_count != n) {
      return Status::DataLoss("label count " + std::to_string(label_count) +
                              " does not match " + std::to_string(n) +
                              " objects");
    }
    std::vector<bool> labels(label_count);
    for (std::uint64_t i = 0; i < label_count; ++i) {
      std::uint8_t b = 0;
      HICS_RETURN_NOT_OK(r->U8(&b));
      labels[i] = b != 0;
    }
    HICS_RETURN_NOT_OK(data.SetLabels(std::move(labels)));
  }
  *out = std::move(data);
  return Status::OK();
}

std::vector<std::uint8_t> EncodeSubspaces(
    const std::vector<TrainedSubspace>& subspaces) {
  Writer w;
  w.U64(subspaces.size());
  for (const TrainedSubspace& t : subspaces) {
    w.U64(t.subspace.size());
    for (std::size_t dim : t.subspace) w.U64(dim);
    w.F64(t.contrast);
    w.U64(t.scorer_state.channels.size());
    for (const std::vector<double>& channel : t.scorer_state.channels) {
      w.F64Vec(channel);
    }
  }
  return w.Take();
}

Status DecodeSubspaces(Reader* r, std::vector<TrainedSubspace>* out) {
  std::uint64_t count = 0;
  HICS_RETURN_NOT_OK(r->U64(&count));
  if (count > r->remaining()) {
    return Status::DataLoss("subspace count " + std::to_string(count) +
                            " exceeds the section payload");
  }
  out->clear();
  out->reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    TrainedSubspace t;
    std::uint64_t ndims = 0;
    HICS_RETURN_NOT_OK(r->U64(&ndims));
    if (ndims > r->remaining() / sizeof(std::uint64_t)) {
      return Status::DataLoss("subspace dimensionality " +
                              std::to_string(ndims) +
                              " exceeds the section payload");
    }
    std::vector<std::size_t> dims(ndims);
    for (std::uint64_t j = 0; j < ndims; ++j) {
      std::uint64_t dim = 0;
      HICS_RETURN_NOT_OK(r->U64(&dim));
      dims[j] = dim;
    }
    t.subspace = Subspace(std::move(dims));
    HICS_RETURN_NOT_OK(r->F64(&t.contrast));
    std::uint64_t channels = 0;
    HICS_RETURN_NOT_OK(r->U64(&channels));
    if (channels > r->remaining()) {
      return Status::DataLoss("channel count " + std::to_string(channels) +
                              " exceeds the section payload");
    }
    t.scorer_state.channels.resize(channels);
    for (std::uint64_t c = 0; c < channels; ++c) {
      HICS_RETURN_NOT_OK(r->F64Vec(&t.scorer_state.channels[c]));
    }
    out->push_back(std::move(t));
  }
  return Status::OK();
}

Status ExpectExhausted(const Reader& r, const char* section) {
  if (r.remaining() != 0) {
    return Status::DataLoss(std::string(section) + " section has " +
                            std::to_string(r.remaining()) +
                            " trailing bytes");
  }
  return Status::OK();
}

}  // namespace

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  static const std::array<std::uint32_t, 256> table = BuildCrcTable();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> SerializeHicsModel(const HicsModel& model) {
  const std::array<std::pair<ModelSection, std::vector<std::uint8_t>>, 4>
      sections = {{
          {ModelSection::kConfig, EncodeConfig(model.config())},
          {ModelSection::kDataset, EncodeDataset(model.training_data())},
          {ModelSection::kSubspaces, EncodeSubspaces(model.subspaces())},
          {ModelSection::kScores,
           [&] {
             Writer w;
             w.F64Vec(model.training_scores());
             return w.Take();
           }()},
      }};

  Writer w;
  for (std::size_t i = 0; i < kHicsModelMagicSize; ++i) {
    w.U8(static_cast<std::uint8_t>(kHicsModelMagic[i]));
  }
  w.U32(kHicsModelFormatVersion);
  w.U32(static_cast<std::uint32_t>(sections.size()));
  for (const auto& [id, payload] : sections) {
    w.U32(static_cast<std::uint32_t>(id));
    w.U64(payload.size());
    for (std::uint8_t b : payload) w.U8(b);
    w.U32(Crc32(payload));
  }
  return w.Take();
}

Result<HicsModel> DeserializeHicsModel(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  if (bytes.size() < kHicsModelMagicSize) {
    return Status::DataLoss("model file truncated: " +
                            std::to_string(bytes.size()) +
                            " bytes is shorter than the magic");
  }
  if (std::memcmp(bytes.data(), kHicsModelMagic, kHicsModelMagicSize) != 0) {
    return Status::InvalidArgument(
        "not a HiCS model file (bad magic)");
  }
  HICS_RETURN_NOT_OK(r.Skip(kHicsModelMagicSize, "magic"));
  std::uint32_t version = 0;
  HICS_RETURN_NOT_OK(r.U32(&version));
  if (version != kHicsModelFormatVersion) {
    return Status::InvalidArgument(
        "unsupported model format version " + std::to_string(version) +
        "; this build reads version " +
        std::to_string(kHicsModelFormatVersion));
  }
  std::uint32_t section_count = 0;
  HICS_RETURN_NOT_OK(r.U32(&section_count));

  HicsModel::Parts parts;
  bool seen[5] = {false, false, false, false, false};
  for (std::uint32_t s = 0; s < section_count; ++s) {
    std::uint32_t id = 0;
    std::uint64_t size = 0;
    HICS_RETURN_NOT_OK(r.U32(&id));
    HICS_RETURN_NOT_OK(r.U64(&size));
    if (size > r.remaining()) {
      return Status::DataLoss("model file truncated: section " +
                              std::to_string(id) + " claims " +
                              std::to_string(size) + " bytes but only " +
                              std::to_string(r.remaining()) + " remain");
    }
    const std::span<const std::uint8_t> payload = r.Peek(size);
    HICS_RETURN_NOT_OK(r.Skip(size, "section payload"));
    std::uint32_t stored_crc = 0;
    HICS_RETURN_NOT_OK(r.U32(&stored_crc));
    const std::uint32_t actual_crc = Crc32(payload);
    if (stored_crc != actual_crc) {
      return Status::DataLoss("checksum mismatch in section " +
                              std::to_string(id) + ": stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(actual_crc));
    }
    if (id < 1 || id > 4) {
      return Status::DataLoss("unknown section id " + std::to_string(id));
    }
    if (seen[id]) {
      return Status::DataLoss("duplicate section id " + std::to_string(id));
    }
    seen[id] = true;

    Reader section(payload);
    switch (static_cast<ModelSection>(id)) {
      case ModelSection::kConfig:
        HICS_RETURN_NOT_OK(DecodeConfig(&section, &parts.config));
        HICS_RETURN_NOT_OK(ExpectExhausted(section, "config"));
        break;
      case ModelSection::kDataset:
        HICS_RETURN_NOT_OK(DecodeDataset(&section, &parts.training_data));
        HICS_RETURN_NOT_OK(ExpectExhausted(section, "dataset"));
        break;
      case ModelSection::kSubspaces:
        HICS_RETURN_NOT_OK(DecodeSubspaces(&section, &parts.subspaces));
        HICS_RETURN_NOT_OK(ExpectExhausted(section, "subspaces"));
        break;
      case ModelSection::kScores:
        HICS_RETURN_NOT_OK(section.F64Vec(&parts.training_scores));
        HICS_RETURN_NOT_OK(ExpectExhausted(section, "scores"));
        break;
    }
  }
  if (r.remaining() != 0) {
    return Status::DataLoss("model file has " +
                            std::to_string(r.remaining()) +
                            " trailing bytes after the last section");
  }
  for (std::uint32_t id = 1; id <= 4; ++id) {
    if (!seen[id]) {
      return Status::DataLoss("model file is missing section " +
                              std::to_string(id));
    }
  }
  return HicsModel::FromParts(std::move(parts));
}

Status SaveHicsModel(const HicsModel& model, const std::string& path) {
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  const std::string tmp_path = path + ".tmp";

  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot create '" + tmp_path +
                           "': " + std::strerror(errno));
  }
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return Status::IOError("write to '" + tmp_path + "' failed: " + err);
    }
    written += static_cast<std::size_t>(n);
  }
  // Durability before visibility: the rename must not publish a file whose
  // bytes are still in flight.
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return Status::IOError("fsync of '" + tmp_path + "' failed: " + err);
  }
  if (::close(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return Status::IOError("close of '" + tmp_path + "' failed: " + err);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const std::string err = std::strerror(errno);
    ::unlink(tmp_path.c_str());
    return Status::IOError("rename '" + tmp_path + "' -> '" + path +
                           "' failed: " + err);
  }
  return Status::OK();
}

Result<HicsModel> LoadHicsModel(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open model file '" + path +
                           "': " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("read of '" + path + "' failed: " + err);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return DeserializeHicsModel(bytes);
}

}  // namespace hics
