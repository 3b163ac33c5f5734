#include "io/serialize.h"

#include "data/loader.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "tests/test_util.h"

namespace cce::io {
namespace {

TEST(EscapeTest, RoundTripsSpecialCharacters) {
  const std::string original = "a\\b\nc\rd\te plain";
  auto back = UnescapeLine(EscapeLine(original));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, original);
  EXPECT_EQ(EscapeLine(original).find('\n'), std::string::npos);
}

TEST(EscapeTest, RejectsMalformedEscapes) {
  EXPECT_FALSE(UnescapeLine("dangling\\").ok());
  EXPECT_FALSE(UnescapeLine("bad\\x").ok());
}

TEST(DatasetIoTest, RoundTripsFig2) {
  cce::testing::Fig2Context fig2;
  std::stringstream buffer;
  CCE_CHECK_OK(SaveDataset(fig2.context, &buffer));
  auto loaded = LoadDataset(&buffer);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), fig2.context.size());
  ASSERT_EQ(loaded->num_features(), fig2.context.num_features());
  for (size_t row = 0; row < loaded->size(); ++row) {
    EXPECT_EQ(loaded->instance(row), fig2.context.instance(row));
    EXPECT_EQ(loaded->label(row), fig2.context.label(row));
  }
  // Dictionaries survive: names resolve identically.
  EXPECT_EQ(loaded->schema().FeatureName(fig2.credit), "Credit");
  EXPECT_EQ(loaded->schema().LabelName(fig2.denied), "Denied");
  EXPECT_EQ(*loaded->schema().LookupValue(fig2.income, "3-4K"),
            *fig2.schema->LookupValue(fig2.income, "3-4K"));
}

TEST(DatasetIoTest, RoundTripsSpecialCharactersInNames) {
  auto schema = std::make_shared<Schema>();
  FeatureId f = schema->AddFeature("weird\tname");
  schema->InternValue(f, "line\nbreak");
  schema->InternValue(f, "back\\slash");
  schema->InternLabel("ok");
  Dataset dataset(schema);
  dataset.Add({0}, 0);
  dataset.Add({1}, 0);
  std::stringstream buffer;
  CCE_CHECK_OK(SaveDataset(dataset, &buffer));
  auto loaded = LoadDataset(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->schema().FeatureName(0), "weird\tname");
  EXPECT_EQ(loaded->schema().ValueName(0, 0), "line\nbreak");
  EXPECT_EQ(loaded->schema().ValueName(0, 1), "back\\slash");
}

TEST(DatasetIoTest, RejectsCorruptedInput) {
  std::stringstream bad_magic("NOTADATASET\n");
  EXPECT_FALSE(LoadDataset(&bad_magic).ok());
  std::stringstream truncated("CCEDATASET v1\nfeatures 2\n");
  EXPECT_FALSE(LoadDataset(&truncated).ok());
  std::stringstream bad_value(
      "CCEDATASET v1\nfeatures 1\nfeature 1 a\nv\nlabels 1\nl\nrows 1\n"
      "7 0\n");
  EXPECT_FALSE(LoadDataset(&bad_value).ok());
  std::stringstream bad_label(
      "CCEDATASET v1\nfeatures 1\nfeature 1 a\nv\nlabels 1\nl\nrows 1\n"
      "0 9\n");
  EXPECT_FALSE(LoadDataset(&bad_label).ok());
}

TEST(DatasetIoTest, FileRoundTrip) {
  cce::testing::Fig2Context fig2;
  cce::testing::ScopedTestDir tmp;
  const std::string path = tmp.File("dataset.txt");
  CCE_CHECK_OK(SaveDatasetToFile(fig2.context, path));
  auto loaded = LoadDatasetFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), fig2.context.size());
}

TEST(DatasetIoTest, MissingFileFails) {
  EXPECT_EQ(LoadDatasetFromFile("/no/such/dataset.txt").status().code(),
            StatusCode::kIoError);
}

TEST(CsvExportTest, RoundTripsThroughTheLoader) {
  cce::testing::Fig2Context fig2;
  auto table = DatasetToCsv(fig2.context, "prediction");
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->header.size(), 5u);
  EXPECT_EQ(table->header.back(), "prediction");
  EXPECT_EQ(table->rows[0][1], "3-4K");  // Income of x0, human-readable

  data::LoadOptions load_options;
  load_options.label_column = "prediction";
  auto reloaded = data::LoadCsvDataset(*table, load_options);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), fig2.context.size());
  // Values survive by NAME (ids may be re-interned in a different order):
  // check a couple of cells and every label.
  for (size_t row = 0; row < reloaded->size(); ++row) {
    const Schema& in = *fig2.schema;
    const Schema& out = reloaded->schema();
    EXPECT_EQ(out.LabelName(reloaded->label(row)),
              in.LabelName(fig2.context.label(row)));
    EXPECT_EQ(out.ValueName(fig2.credit, reloaded->value(row, fig2.credit)),
              in.ValueName(fig2.credit,
                           fig2.context.value(row, fig2.credit)));
  }
}

TEST(CsvExportTest, RejectsCollidingLabelColumn) {
  cce::testing::Fig2Context fig2;
  EXPECT_FALSE(DatasetToCsv(fig2.context, "Credit").ok());
  EXPECT_FALSE(DatasetToCsv(fig2.context, "").ok());
}

TEST(GbdtIoTest, RoundTripPreservesPredictions) {
  Dataset data = cce::testing::RandomContext(500, 5, 3, 91, /*noise=*/0.0);
  ml::Gbdt::Options options;
  options.num_trees = 30;
  auto model = ml::Gbdt::Train(data, options);
  ASSERT_TRUE(model.ok());
  std::stringstream buffer;
  CCE_CHECK_OK(SaveGbdt(**model, &buffer));
  auto loaded = LoadGbdt(&buffer);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ((*loaded)->trees().size(), (*model)->trees().size());
  for (size_t row = 0; row < data.size(); ++row) {
    EXPECT_DOUBLE_EQ((*loaded)->Margin(data.instance(row)),
                     (*model)->Margin(data.instance(row)));
  }
}

TEST(GbdtIoTest, RejectsCorruptedModels) {
  std::stringstream bad_magic("NOTAMODEL\n");
  EXPECT_FALSE(LoadGbdt(&bad_magic).ok());
  std::stringstream bad_children(
      "CCEGBDT v1\nbase_score 0\ntrees 1\ntree 1\n0 0 0 5 6 0.0\n");
  EXPECT_FALSE(LoadGbdt(&bad_children).ok());
  std::stringstream truncated("CCEGBDT v1\nbase_score 0\ntrees 2\n");
  EXPECT_FALSE(LoadGbdt(&truncated).ok());
}

TEST(GbdtIoTest, FileRoundTrip) {
  Dataset data = cce::testing::RandomContext(200, 4, 3, 92);
  auto model = ml::Gbdt::Train(data, {});
  ASSERT_TRUE(model.ok());
  cce::testing::ScopedTestDir tmp;
  const std::string path = tmp.File("model.txt");
  CCE_CHECK_OK(SaveGbdtToFile(**model, path));
  auto loaded = LoadGbdtFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_DOUBLE_EQ((*loaded)->Margin(data.instance(0)),
                   (*model)->Margin(data.instance(0)));
}

}  // namespace
}  // namespace cce::io
