// Durability tests for the model-file format: property-style round trips
// over random models, a full truncation sweep, per-byte bit flips,
// version skew, and semantic validation of reassembled parts. The format
// promise under test: a damaged file is *always* rejected with a precise
// non-OK Status — never UB, never a silently wrong model.

#include "serve/model_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/random.h"
#include "serve/hics_model.h"

namespace hics {
namespace {

Dataset SmallDataset(std::size_t n, std::size_t d, std::uint64_t seed) {
  Rng rng(seed);
  Dataset ds(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.Bernoulli(0.5) ? 0.25 : 0.75;
    for (std::size_t a = 0; a < d; ++a) {
      ds.Set(i, a, a < 2 ? c + rng.Gaussian(0.0, 0.05) : rng.UniformDouble());
    }
  }
  return ds;
}

HicsModel FitSmallModel(ScorerKind kind, std::size_t k, std::uint64_t seed) {
  HicsModelConfig config;
  config.search_params.num_iterations = 10;
  config.search_params.output_top_k = 4;
  config.search_params.seed = seed;
  config.scorer.kind = kind;
  config.scorer.k = k;
  auto model = HicsModel::Fit(SmallDataset(30, 4, seed), config);
  HICS_CHECK(model.ok()) << model.status().ToString();
  return std::move(model).ValueOrDie();
}

void ExpectModelsEqual(const HicsModel& a, const HicsModel& b) {
  EXPECT_EQ(a.training_scores(), b.training_scores());
  ASSERT_EQ(a.subspaces().size(), b.subspaces().size());
  for (std::size_t i = 0; i < a.subspaces().size(); ++i) {
    EXPECT_EQ(a.subspaces()[i].subspace, b.subspaces()[i].subspace);
    EXPECT_EQ(a.subspaces()[i].contrast, b.subspaces()[i].contrast);
    EXPECT_EQ(a.subspaces()[i].scorer_state, b.subspaces()[i].scorer_state);
  }
  EXPECT_EQ(a.config().scorer, b.config().scorer);
  EXPECT_EQ(a.config().aggregation, b.config().aggregation);
  EXPECT_EQ(a.config().num_shards, b.config().num_shards);
  EXPECT_EQ(a.config().search_params.seed, b.config().search_params.seed);
  EXPECT_EQ(a.num_training_objects(), b.num_training_objects());
  EXPECT_EQ(a.num_attributes(), b.num_attributes());
  for (std::size_t att = 0; att < a.num_attributes(); ++att) {
    EXPECT_EQ(a.training_data().Column(att), b.training_data().Column(att));
  }
}

TEST(Crc32Test, KnownAnswer) {
  // The IEEE CRC-32 check value for "123456789".
  const std::string input = "123456789";
  const std::uint32_t crc = Crc32(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(input.data()), input.size()));
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(ModelIoTest, RoundTripIsByteIdentical) {
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 5, 1);
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  auto restored = DeserializeHicsModel(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectModelsEqual(model, *restored);
  // Serializing the restored model reproduces the file bit for bit —
  // the round trip is lossless in both directions.
  EXPECT_EQ(SerializeHicsModel(*restored), bytes);
}

TEST(ModelIoTest, PropertyRoundTripOverRandomModels) {
  const ScorerKind kinds[] = {ScorerKind::kLof, ScorerKind::kKnnDistance,
                              ScorerKind::kKnnAverage};
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (ScorerKind kind : kinds) {
      const HicsModel model = FitSmallModel(kind, 3 + seed, seed);
      const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
      auto restored = DeserializeHicsModel(bytes);
      ASSERT_TRUE(restored.ok())
          << "seed " << seed << ": " << restored.status().ToString();
      ExpectModelsEqual(model, *restored);
      EXPECT_EQ(SerializeHicsModel(*restored), bytes);
    }
  }
}

TEST(ModelIoTest, ReservedConfigByteIsIgnored) {
  // The config byte after num_threads is reserved: older v2 writers stored
  // a contrast-kernel flag there, 0 for the gather+sort oracle kernel and
  // 1 for the rank-space kernel, and both described bit-identical models.
  // A file holding 0 must load and score exactly like one holding 1.
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 5, 3);
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  // Magic, u32 version, u32 section count, then the config section's
  // u32 id and u64 payload size.
  constexpr std::size_t kPayload = kHicsModelMagicSize + 4 + 4 + 4 + 8;
  std::uint32_t section_id = 0;
  std::memcpy(&section_id, bytes.data() + kPayload - 12, sizeof(section_id));
  ASSERT_EQ(section_id, static_cast<std::uint32_t>(ModelSection::kConfig));
  std::uint64_t payload_size = 0;
  std::memcpy(&payload_size, bytes.data() + kPayload - 8,
              sizeof(payload_size));
  // Config payload: u64 M, f64 alpha, u64 cutoff, u64 top-k, the test
  // name (u64 length + bytes), u64 max dims, u8 prune, u64 seed, u64
  // threads, then the reserved byte.
  const std::size_t reserved =
      kPayload + 4 * 8 + 8 +
      model.config().search_params.statistical_test.size() + 8 + 1 + 8 + 8;
  ASSERT_LT(reserved, kPayload + payload_size);
  ASSERT_EQ(bytes[reserved], 1u);

  std::vector<std::uint8_t> patched = bytes;
  patched[reserved] = 0;
  const std::uint32_t crc = Crc32(std::span<const std::uint8_t>(
      patched.data() + kPayload, payload_size));
  std::memcpy(patched.data() + kPayload + payload_size, &crc, sizeof(crc));

  auto original = DeserializeHicsModel(bytes);
  auto loaded = DeserializeHicsModel(patched);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectModelsEqual(*original, *loaded);
  // The writer always stores 1, so re-saving yields today's file.
  EXPECT_EQ(SerializeHicsModel(*loaded), bytes);

  Rng rng(21);
  const std::size_t num_queries = 6;
  std::vector<double> queries(num_queries * model.num_attributes());
  for (double& v : queries) v = rng.UniformDouble();
  const auto want = original->ScoreQueries(queries, num_queries);
  const auto got = loaded->ScoreQueries(queries, num_queries);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want);
}

TEST(ModelIoTest, ThreadCountDoesNotChangeModelBytes) {
  // The fit-time thread count changes no score, so it must not change the
  // file either: a model's bytes depend only on what selects its results.
  const Dataset data = SmallDataset(120, 5, 9);
  std::vector<std::vector<std::uint8_t>> files;
  for (std::size_t threads : {1u, 4u}) {
    HicsModelConfig config;
    config.search_params.num_iterations = 20;
    config.search_params.output_top_k = 6;
    config.search_params.seed = 9;
    config.search_params.num_threads = threads;
    config.scorer.kind = ScorerKind::kLof;
    config.scorer.k = 8;
    auto model = HicsModel::Fit(data, config);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    files.push_back(SerializeHicsModel(*model));

    auto reloaded = DeserializeHicsModel(files.back());
    ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
    auto rescored = reloaded->RescoreTrainingSet();
    ASSERT_TRUE(rescored.ok()) << rescored.status().ToString();
    EXPECT_EQ(*rescored, reloaded->training_scores());
    EXPECT_EQ(reloaded->training_scores(), model->training_scores());
  }
  EXPECT_EQ(files[0], files[1]);
}

TEST(ModelIoTest, EveryTruncationIsRejected) {
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 4, 7);
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    auto result = DeserializeHicsModel(
        std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_FALSE(result.ok()) << "prefix of " << len << " bytes accepted";
  }
}

TEST(ModelIoTest, EveryBitFlipIsRejected) {
  // Flip one bit in every byte of the file. Payload flips are caught by
  // the section CRCs; structure flips (magic, version, counts, sizes,
  // ids, stored CRCs) by the format validation. No flip may parse.
  const HicsModel model = FitSmallModel(ScorerKind::kKnnDistance, 4, 9);
  const std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  std::vector<std::uint8_t> corrupt = bytes;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    corrupt[i] ^= 1u << (i % 8);
    auto result = DeserializeHicsModel(corrupt);
    EXPECT_FALSE(result.ok())
        << "flip of bit " << i % 8 << " in byte " << i << " accepted";
    corrupt[i] = bytes[i];
  }
}

TEST(ModelIoTest, VersionSkewIsRejectedWithPreciseStatus) {
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 4, 11);
  std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  bytes[kHicsModelMagicSize] = 3;  // format version 3 from "the future"
  auto result = DeserializeHicsModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version 3"), std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("version 2"), std::string::npos)
      << result.status().message();
}

TEST(ModelIoTest, OlderFormatVersionIsRejected) {
  // v1 files predate the num_shards field; this build refuses to guess a
  // default and rejects them with the version pair in the message.
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 4, 11);
  std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  bytes[kHicsModelMagicSize] = 1;
  auto result = DeserializeHicsModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("version 1"), std::string::npos)
      << result.status().message();
}

TEST(ModelIoTest, WrongMagicIsRejected) {
  std::vector<std::uint8_t> bytes(64, 0);
  auto result = DeserializeHicsModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ModelIoTest, EmptyInputIsRejected) {
  auto result = DeserializeHicsModel({});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
}

TEST(ModelIoTest, TrailingGarbageIsRejected) {
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 4, 13);
  std::vector<std::uint8_t> bytes = SerializeHicsModel(model);
  bytes.push_back(0xAB);
  auto result = DeserializeHicsModel(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("trailing"), std::string::npos);
}

TEST(ModelIoTest, SaveLoadRoundTripThroughDisk) {
  const HicsModel model = FitSmallModel(ScorerKind::kKnnAverage, 6, 15);
  const std::string path =
      testing::TempDir() + "/model_io_roundtrip.hicsmodel";
  ASSERT_TRUE(SaveHicsModel(model, path).ok());
  // The atomic writer must not leave its temp file behind.
  std::FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr) << "temp file left behind after save";
  if (tmp != nullptr) std::fclose(tmp);
  auto restored = LoadHicsModel(path);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ExpectModelsEqual(model, *restored);
  std::remove(path.c_str());
}

TEST(ModelIoTest, SaveOverwritesAtomically) {
  const HicsModel first = FitSmallModel(ScorerKind::kLof, 4, 17);
  const HicsModel second = FitSmallModel(ScorerKind::kLof, 7, 19);
  const std::string path = testing::TempDir() + "/model_io_overwrite.hicsmodel";
  ASSERT_TRUE(SaveHicsModel(first, path).ok());
  ASSERT_TRUE(SaveHicsModel(second, path).ok());
  auto restored = LoadHicsModel(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->config().scorer.k, 7u);
  std::remove(path.c_str());
}

TEST(ModelIoTest, MissingFileIsIOError) {
  auto result = LoadHicsModel("/nonexistent/dir/model.hicsmodel");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Semantic validation: structurally valid bytes, semantically broken parts.
// ---------------------------------------------------------------------------

HicsModel::Parts ValidParts() {
  const HicsModel model = FitSmallModel(ScorerKind::kLof, 4, 21);
  HicsModel::Parts parts;
  parts.config = model.config();
  parts.training_data = model.training_data();
  parts.subspaces = model.subspaces();
  parts.training_scores = model.training_scores();
  return parts;
}

TEST(ModelPartsTest, ValidPartsReassemble) {
  auto model = HicsModel::FromParts(ValidParts());
  EXPECT_TRUE(model.ok()) << model.status().ToString();
}

TEST(ModelPartsTest, WrongScoreLengthRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.training_scores.pop_back();
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kDataLoss);
}

TEST(ModelPartsTest, OutOfRangeAttributeRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.subspaces[0].subspace = Subspace({0, 99});
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kDataLoss);
}

TEST(ModelPartsTest, WrongChannelCountRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.subspaces[0].scorer_state.channels.pop_back();
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kDataLoss);
}

TEST(ModelPartsTest, WrongChannelLengthRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.subspaces[0].scorer_state.channels[0].push_back(1.0);
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kDataLoss);
}

TEST(ModelPartsTest, NoSubspacesRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.subspaces.clear();
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kDataLoss);
}

TEST(ModelPartsTest, UnknownScorerKindRejected) {
  HicsModel::Parts parts = ValidParts();
  parts.config.scorer.kind = static_cast<ScorerKind>(77);
  auto model = HicsModel::FromParts(std::move(parts));
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace hics
