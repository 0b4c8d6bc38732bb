#ifndef HICS_SERVE_MODEL_IO_H_
#define HICS_SERVE_MODEL_IO_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/hics_model.h"

namespace hics {

/// Binary model-file format (version 2):
///
///   [8]  magic "HICSMODL"
///   [u32] format version
///   [u32] section count
///   per section:
///     [u32] section id
///     [u64] payload size in bytes
///     [...] payload
///     [u32] CRC-32 of the payload
///
/// All integers and IEEE-754 doubles are little-endian. Every read is
/// bounds-checked and every payload is checksummed, so a truncated,
/// bit-flipped, or trailing-garbage file is rejected with a precise
/// non-OK Status (DataLoss for corruption, InvalidArgument for
/// wrong-magic / version-skewed files) — never undefined behavior, and
/// never a silently wrong model.
///
/// Version history:
///   v1 — initial format (PR 6).
///   v2 — config section gains num_shards (u64, appended after the
///        aggregation id): the fit-time shard count, persisted for
///        provenance. Readers of this build reject v1 files rather than
///        guess at a default — models are cheap to refit and a silent
///        default would misreport how a model was produced.
///        The config byte after num_threads is reserved. It once held a
///        contrast-kernel flag (0 = gather+sort, 1 = rank-space) whose
///        values gave bit-identical models; writers now always store 1
///        and readers ignore it, so the format stays v2 and files written
///        either way load and score identically.
///        The config's num_threads slot (the u64 before that byte) is
///        fixed the same way. It once held the fit-time thread count,
///        which changes no score, so one fit at 1 and at 4 threads gave
///        files that differed. Writers now always store 1 and readers
///        ignore the slot, leaving the HicsParams default: a model's
///        bytes depend only on what selects its results, and files
///        written either way load and score identically.
inline constexpr std::uint32_t kHicsModelFormatVersion = 2;
inline constexpr std::size_t kHicsModelMagicSize = 8;
inline constexpr char kHicsModelMagic[kHicsModelMagicSize + 1] = "HICSMODL";

/// Section ids of the model format. All four sections are required,
/// each exactly once, in this order.
enum class ModelSection : std::uint32_t {
  kConfig = 1,     ///< search params + scorer spec + aggregation
  kDataset = 2,    ///< training points (column-major), names, labels
  kSubspaces = 3,  ///< trained subspaces: dims, contrast, scorer state
  kScores = 4,     ///< training-set scores
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `data`. Exposed so tests
/// can forge / verify checksums directly.
std::uint32_t Crc32(std::span<const std::uint8_t> data);

/// Serializes a model to the current (version-2) byte format.
std::vector<std::uint8_t> SerializeHicsModel(const HicsModel& model);

/// Parses a model from bytes, validating magic, version, section
/// structure, checksums, and (via HicsModel::FromParts) semantic
/// invariants. Returns a precise error for every malformed input.
Result<HicsModel> DeserializeHicsModel(std::span<const std::uint8_t> bytes);

/// Atomically writes the model to `path`: serialize, write to a
/// temporary sibling file, fsync, then rename over the target — so a
/// crash mid-save leaves either the old file or the new one, never a
/// torn hybrid.
Status SaveHicsModel(const HicsModel& model, const std::string& path);

/// Reads and deserializes a model file saved by SaveHicsModel. Missing
/// or unreadable files yield IOError; malformed content yields the
/// DeserializeHicsModel errors.
Result<HicsModel> LoadHicsModel(const std::string& path);

}  // namespace hics

#endif  // HICS_SERVE_MODEL_IO_H_
