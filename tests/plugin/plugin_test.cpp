#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>

#include "hyrise.hpp"
#include "plugin/plugin_manager.hpp"
#include "sql/sql_pipeline.hpp"
#include "storage/index/abstract_chunk_index.hpp"
#include "storage/table.hpp"
#include "storage/value_segment.hpp"
#include "test_utils.hpp"

namespace hyrise {

namespace {

/// Locates the plugin shared object next to the test binary's build tree.
std::string PluginPath() {
  for (const auto* candidate :
       {"plugins/libhyrise_self_driving_plugin.so", "../plugins/libhyrise_self_driving_plugin.so",
        "build/plugins/libhyrise_self_driving_plugin.so"}) {
    if (std::filesystem::exists(candidate)) {
      return std::filesystem::absolute(candidate).string();
    }
  }
  return "";
}

}  // namespace

class PluginTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Hyrise::Reset();
  }
};

TEST_F(PluginTest, LoadUnloadLifecycle) {
  const auto path = PluginPath();
  ASSERT_FALSE(path.empty()) << "plugin .so not found relative to the working directory";

  auto& manager = *Hyrise::Get().plugin_manager;
  manager.LoadPlugin(path);
  EXPECT_TRUE(manager.IsLoaded("SelfDrivingPlugin"));
  EXPECT_EQ(manager.LoadedPlugins(), (std::vector<std::string>{"SelfDrivingPlugin"}));
  manager.UnloadPlugin("SelfDrivingPlugin");
  EXPECT_FALSE(manager.IsLoaded("SelfDrivingPlugin"));
}

TEST_F(PluginTest, SelfDrivingPluginTunesPhysicalDesign) {
  const auto path = PluginPath();
  ASSERT_FALSE(path.empty());

  // A table with a low-cardinality column (dictionary + index candidate) and
  // a runs-heavy column (run-length candidate).
  auto table = std::make_shared<Table>(
      TableColumnDefinitions{{"status", DataType::kString}, {"run", DataType::kInt}}, TableType::kData, 1000);
  for (auto row = 0; row < 3000; ++row) {
    table->AppendRow({std::string{row % 3 == 0 ? "open" : "done"}, row / 500});
  }
  Hyrise::Get().storage_manager.AddTable("work_items", table);

  auto& manager = *Hyrise::Get().plugin_manager;
  manager.LoadPlugin(path);

  // Immutable chunks (0 and 1) were re-encoded; the low-cardinality string
  // column got dictionary encoding plus a group-key index.
  const auto chunk = table->GetChunk(ChunkID{0});
  EXPECT_NE(dynamic_cast<const AbstractEncodedSegment*>(chunk->GetSegment(ColumnID{0}).get()), nullptr);
  EXPECT_FALSE(chunk->GetIndexes({ColumnID{0}}).empty());
  // The runs-heavy int column became run-length encoded.
  const auto* encoded = dynamic_cast<const AbstractEncodedSegment*>(chunk->GetSegment(ColumnID{1}).get());
  ASSERT_NE(encoded, nullptr);
  EXPECT_EQ(encoded->encoding_type(), EncodingType::kRunLength);

  // Data unchanged and queryable (the plugin only changed physical design).
  ExpectTableContents(ExecuteSql("SELECT COUNT(*) FROM work_items WHERE status = 'open'"), {{int64_t{1000}}});

  manager.UnloadPlugin("SelfDrivingPlugin");
}

TEST_F(PluginTest, SelfDrivingPluginPicksFrameOfReferenceForDenseDomainsAwayFromZero) {
  const auto path = PluginPath();
  ASSERT_FALSE(path.empty());

  // Two immutable chunks of 1000 distinct integers spanning 999 (no runs, too
  // many distinct values for dictionary): one all positive, one all negative.
  auto table = std::make_shared<Table>(TableColumnDefinitions{{"id", DataType::kInt, true}}, TableType::kData, 1000);
  for (const auto first : {5'000'000, -5'000'999}) {
    auto values = std::vector<int32_t>(1000);
    std::iota(values.begin(), values.end(), first);
    auto nulls = std::vector<bool>(1000, false);
    nulls[0] = true;  // A NULL first row must not seed the range.
    table->AppendChunk({std::make_shared<ValueSegment<int32_t>>(std::move(values), std::move(nulls))});
  }
  Hyrise::Get().storage_manager.AddTable("dense_ids", table);

  auto& manager = *Hyrise::Get().plugin_manager;
  manager.LoadPlugin(path);

  for (auto chunk_id = ChunkID{0}; chunk_id < table->chunk_count(); ++chunk_id) {
    const auto* encoded =
        dynamic_cast<const AbstractEncodedSegment*>(table->GetChunk(chunk_id)->GetSegment(ColumnID{0}).get());
    ASSERT_NE(encoded, nullptr) << "chunk " << chunk_id;
    EXPECT_EQ(encoded->encoding_type(), EncodingType::kFrameOfReference) << "chunk " << chunk_id;
  }
  ExpectTableContents(ExecuteSql("SELECT COUNT(id), MIN(id), MAX(id) FROM dense_ids"),
                      {{int64_t{1998}, int32_t{-5'000'998}, int32_t{5'000'999}}});

  manager.UnloadPlugin("SelfDrivingPlugin");
}

TEST_F(PluginTest, LoadingMissingPluginFails) {
  EXPECT_DEATH(Hyrise::Get().plugin_manager->LoadPlugin("/nonexistent/libplugin.so"), "Cannot load plugin");
}

}  // namespace hyrise
