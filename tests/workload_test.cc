// Workload subsystem: spec parsing, typed parameter access, unknown-key
// rejection, registry resolution, built-in adapter bit-identity with the
// direct generators, and the csv: factory's error paths. Round-trip
// (export → load → identical experiment fingerprints) lives in
// workload_roundtrip_test.cc.
#include "workload/workload.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "sim/dataset1.h"
#include "sim/dataset2.h"
#include "workload/file_workload.h"
#include "workload/registry.h"
#include "workload/row_stream.h"

namespace gdr {
namespace {

std::filesystem::path TempDir(const std::string& leaf) {
  const auto dir = std::filesystem::temp_directory_path() / leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  ASSERT_TRUE(out.good());
}

// ---------------------------------------------------------------- spec --

TEST(WorkloadSpecTest, ParsesNameOnly) {
  auto spec = WorkloadSpec::Parse("dataset1");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "dataset1");
  EXPECT_TRUE(spec->params.empty());
}

TEST(WorkloadSpecTest, ParsesParamsInOrder) {
  auto spec = WorkloadSpec::Parse("dataset1:records=400, seed=5,volume_skew=0.5");
  ASSERT_TRUE(spec.ok());
  ASSERT_EQ(spec->params.size(), 3u);
  EXPECT_EQ(spec->params[0].first, "records");
  EXPECT_EQ(spec->params[0].second, "400");
  EXPECT_EQ(spec->params[1].first, "seed");
  EXPECT_EQ(spec->params[1].second, "5");
  EXPECT_EQ(spec->ToString(), "dataset1:records=400,seed=5,volume_skew=0.5");
}

TEST(WorkloadSpecTest, ValueMayContainColonAndEquals) {
  auto spec = WorkloadSpec::Parse("csv:clean=C:/data/x.csv,name=a=b");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(*spec->Find("clean"), "C:/data/x.csv");
  EXPECT_EQ(*spec->Find("name"), "a=b");
}

TEST(WorkloadSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(WorkloadSpec::Parse("").ok());
  EXPECT_FALSE(WorkloadSpec::Parse("  :records=4").ok());
  // A missing name must not silently swallow the first parameter.
  EXPECT_FALSE(WorkloadSpec::Parse("records=400").ok());
  EXPECT_FALSE(WorkloadSpec::Parse("d1:records").ok());
  const auto dup = WorkloadSpec::Parse("d1:a=1,a=2");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("duplicate parameter 'a'"),
            std::string::npos);
}

TEST(WorkloadSpecTest, TypedGettersParseAndReportOffendingValue) {
  const auto spec = WorkloadSpec::Parse("w:n=42,f=0.25,bad=xyz");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(*spec->GetSize("n", 7), 42u);
  EXPECT_EQ(*spec->GetSize("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(*spec->GetDouble("f", 0.0), 0.25);
  EXPECT_EQ(*spec->GetInt("n", 0), 42);
  const auto bad = spec->GetSize("bad", 0);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("'bad'"), std::string::npos);
  EXPECT_NE(bad.status().message().find("'xyz'"), std::string::npos);
}

// strtod accepts nan and inf spellings; a workload parameter must be a
// finite number.
TEST(WorkloadSpecTest, GetDoubleRejectsNonFiniteValues) {
  const auto spec =
      WorkloadSpec::Parse("w:a=nan,b=inf,c=-infinity,d=NAN,e=1e999,f=-0.5");
  ASSERT_TRUE(spec.ok());
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    const auto value = spec->GetDouble(key, 0.0);
    ASSERT_FALSE(value.ok()) << key;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument) << key;
    EXPECT_NE(value.status().message().find(std::string("'") + key + "'"),
              std::string::npos)
        << value.status().message();
  }
  EXPECT_DOUBLE_EQ(*spec->GetDouble("f", 0.0), -0.5);
}

TEST(WorkloadSpecTest, RejectUnknownKeysNamesOffenderAndAcceptedSet) {
  const auto spec = WorkloadSpec::Parse("w:records=4,recrods=5");
  ASSERT_TRUE(spec.ok());
  const Status status = spec->RejectUnknownKeys({"records", "seed"});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'recrods'"), std::string::npos);
  EXPECT_NE(status.message().find("records, seed"), std::string::npos);
  EXPECT_TRUE(spec->RejectUnknownKeys({"records", "recrods"}).ok());
}

// ------------------------------------------------------------ registry --

TEST(WorkloadRegistryTest, GlobalHasBuiltins) {
  WorkloadRegistry& registry = WorkloadRegistry::Global();
  EXPECT_TRUE(registry.Contains("dataset1"));
  EXPECT_TRUE(registry.Contains("dataset2"));
  EXPECT_TRUE(registry.Contains("figure1"));
  EXPECT_TRUE(registry.Contains("csv"));
  EXPECT_FALSE(registry.Contains("nope"));
  // List is sorted and carries descriptions.
  const auto list = registry.List();
  ASSERT_GE(list.size(), 4u);
  for (std::size_t i = 1; i < list.size(); ++i) {
    EXPECT_LT(list[i - 1].first, list[i].first);
  }
}

TEST(WorkloadRegistryTest, UnknownWorkloadErrorListsRegistered) {
  const auto resolved = WorkloadRegistry::Global().Resolve("unknown-wl");
  ASSERT_FALSE(resolved.ok());
  EXPECT_NE(resolved.status().message().find("'unknown-wl'"),
            std::string::npos);
  EXPECT_NE(resolved.status().message().find("dataset1"), std::string::npos);
}

TEST(WorkloadRegistryTest, DuplicateRegistrationFails) {
  WorkloadRegistry registry;
  auto factory = [](const WorkloadSpec&) -> Result<Dataset> {
    return Status::InvalidArgument("unused");
  };
  ASSERT_TRUE(registry.Register("w", "", factory).ok());
  EXPECT_FALSE(registry.Register("w", "", factory).ok());
  EXPECT_FALSE(registry.Register("", "", factory).ok());
}

TEST(WorkloadRegistryTest, UnknownParameterRejectedByBuiltins) {
  const auto resolved =
      WorkloadRegistry::Global().Resolve("dataset1:record=100");
  ASSERT_FALSE(resolved.ok());
  EXPECT_NE(resolved.status().message().find("'record'"), std::string::npos);
  EXPECT_FALSE(
      WorkloadRegistry::Global().Resolve("figure1:records=2").ok());
  EXPECT_FALSE(
      WorkloadRegistry::Global().Resolve("dataset2:hospitals=3").ok());
}

// Dataset 1 needs a hospital to put its rows in, and finite parameters:
// zero hospitals used to index past an empty fleet, and a nan skew put
// every row in the last hospital.
TEST(WorkloadRegistryTest, Dataset1RejectsUnservableParameters) {
  for (const char* spec :
       {"dataset1:records=50,hospitals=0", "dataset1:records=50,volume_skew=nan",
        "dataset1:records=50,volume_skew=inf",
        "dataset1:records=50,error_scale=nan"}) {
    const auto resolved = WorkloadRegistry::Global().Resolve(spec);
    ASSERT_FALSE(resolved.ok()) << spec;
    EXPECT_EQ(resolved.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  EXPECT_TRUE(
      WorkloadRegistry::Global().Resolve("dataset1:records=50,hospitals=1").ok());
  EXPECT_FALSE(GenerateDataset1({.num_records = 50, .num_hospitals = 0}).ok());
}

void ExpectSameDataset(const Dataset& a, const Dataset& b) {
  ASSERT_TRUE(a.clean.schema() == b.clean.schema());
  ASSERT_EQ(a.clean.num_rows(), b.clean.num_rows());
  ASSERT_EQ(a.dirty.num_rows(), b.dirty.num_rows());
  EXPECT_EQ(*a.clean.CountDifferingCells(b.clean), 0u);
  EXPECT_EQ(*a.dirty.CountDifferingCells(b.dirty), 0u);
  EXPECT_EQ(a.corrupted_tuples, b.corrupted_tuples);
  ASSERT_EQ(a.rules.size(), b.rules.size());
  for (const RuleId id : a.rules.AllRuleIds()) {
    EXPECT_EQ(a.rules.rule(id).ToString(a.rules.schema()),
              b.rules.rule(id).ToString(b.rules.schema()));
  }
  // Value interning (and therefore every downstream id-based tie-break)
  // must agree, not just the strings.
  for (std::size_t attr = 0; attr < a.dirty.num_attrs(); ++attr) {
    ASSERT_EQ(a.dirty.DomainSize(static_cast<AttrId>(attr)),
              b.dirty.DomainSize(static_cast<AttrId>(attr)));
    for (std::size_t r = 0; r < a.dirty.num_rows(); ++r) {
      ASSERT_EQ(a.dirty.id_at(static_cast<RowId>(r), static_cast<AttrId>(attr)),
                b.dirty.id_at(static_cast<RowId>(r),
                              static_cast<AttrId>(attr)));
    }
  }
}

TEST(WorkloadRegistryTest, Dataset1AdapterIsBitIdenticalToGenerator) {
  const auto via_registry = WorkloadRegistry::Global().Resolve(
      "dataset1:records=500,seed=11,hospitals=20");
  ASSERT_TRUE(via_registry.ok());
  Dataset1Options options;
  options.num_records = 500;
  options.seed = 11;
  options.num_hospitals = 20;
  const auto direct = GenerateDataset1(options);
  ASSERT_TRUE(direct.ok());
  ExpectSameDataset(*via_registry, *direct);
}

TEST(WorkloadRegistryTest, Dataset2AdapterIsBitIdenticalToGenerator) {
  const auto via_registry = WorkloadRegistry::Global().Resolve(
      "dataset2:records=600,seed=9,dirty_fraction=0.25");
  ASSERT_TRUE(via_registry.ok());
  Dataset2Options options;
  options.num_records = 600;
  options.seed = 9;
  options.dirty_tuple_fraction = 0.25;
  const auto direct = GenerateDataset2(options);
  ASSERT_TRUE(direct.ok());
  ExpectSameDataset(*via_registry, *direct);
}

// ------------------------------------------------------------- csv ------

class CsvWorkloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TempDir("gdr_workload_test");
    WriteFile(dir_ / "clean.csv",
              "A,B,ZIP\n"
              "x,u,1\n"
              "y,v,2\n"
              "y,w,2\n");
    WriteFile(dir_ / "dirty.csv",
              "A,B,ZIP\n"
              "x,u,1\n"
              "y,v,9\n"
              "y,w,2\n");
    WriteFile(dir_ / "rules.txt",
              "# comment\n"
              "r1: ZIP=1 -> A=x\n"
              "\n"
              "r2: ZIP=2 -> A=y\n");
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  WorkloadSpec Spec() const { return CsvWorkloadSpec(dir_.string()); }

  std::filesystem::path dir_;
};

TEST_F(CsvWorkloadTest, LoadsTablesRulesAndCorruptionCount) {
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->name, "clean");  // stem of clean.csv; name= overrides
  EXPECT_EQ(dataset->clean.num_rows(), 3u);
  EXPECT_EQ(dataset->dirty.num_rows(), 3u);
  EXPECT_EQ(dataset->corrupted_tuples, 1u);
  EXPECT_EQ(dataset->rules.size(), 2u);
  EXPECT_EQ(dataset->dirty.at(1, 2), "9");
  EXPECT_EQ(dataset->clean.at(1, 2), "2");
  // The dirty table is a diff-applied copy of clean: shared interning.
  EXPECT_EQ(dataset->dirty.id_at(0, 0), dataset->clean.id_at(0, 0));
}

TEST_F(CsvWorkloadTest, NameParameterOverridesStem) {
  WorkloadSpec spec = Spec();
  spec.params.emplace_back("name", "toy");
  const auto dataset = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->name, "toy");
}

TEST_F(CsvWorkloadTest, ErrorInjectorSpecIsDeterministic) {
  WorkloadSpec spec;
  spec.name = "csv";
  spec.params = {{"clean", (dir_ / "clean.csv").string()},
                 {"rules", (dir_ / "rules.txt").string()},
                 {"errors", "random"},
                 {"dirty_fraction", "0.9"},
                 {"error_seed", "3"},
                 {"error_attrs", "A|B"}};
  const auto a = WorkloadRegistry::Global().Resolve(spec);
  const auto b = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a->dirty.CountDifferingCells(b->dirty), 0u);
  EXPECT_GT(a->corrupted_tuples, 0u);
  // ZIP was excluded from error_attrs.
  for (std::size_t r = 0; r < a->dirty.num_rows(); ++r) {
    EXPECT_EQ(a->dirty.at(static_cast<RowId>(r), 2),
              a->clean.at(static_cast<RowId>(r), 2));
  }
}

TEST_F(CsvWorkloadTest, MissingRequiredKeysFail) {
  WorkloadSpec spec;
  spec.name = "csv";
  const auto no_clean = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_FALSE(no_clean.ok());
  EXPECT_NE(no_clean.status().message().find("clean="), std::string::npos);

  spec.params = {{"clean", (dir_ / "clean.csv").string()}};
  const auto no_rules = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_FALSE(no_rules.ok());
  EXPECT_NE(no_rules.status().message().find("rules="), std::string::npos);

  spec.params.emplace_back("rules", (dir_ / "rules.txt").string());
  const auto no_dirt = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_FALSE(no_dirt.ok());
  EXPECT_NE(no_dirt.status().message().find("dirty"), std::string::npos);

  spec.params.emplace_back("dirty", (dir_ / "dirty.csv").string());
  spec.params.emplace_back("errors", "random");
  EXPECT_FALSE(WorkloadRegistry::Global().Resolve(spec).ok());  // both
}

TEST_F(CsvWorkloadTest, InjectorKnobsRejectedAlongsideDirtyFile) {
  WorkloadSpec spec = Spec();  // carries dirty=FILE
  spec.params.emplace_back("error_seed", "7");
  const auto dataset = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("'error_seed'"),
            std::string::npos);
  EXPECT_NE(dataset.status().message().find("errors=random"),
            std::string::npos);
}

TEST_F(CsvWorkloadTest, MismatchedDirtyFileFails) {
  WriteFile(dir_ / "dirty.csv", "A,B,ZIP\nx,u,1\n");  // row count differs
  auto short_file = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(short_file.ok());
  EXPECT_NE(short_file.status().message().find("row count"),
            std::string::npos);

  WriteFile(dir_ / "dirty.csv", "A,B,Z\nx,u,1\ny,v,9\ny,w,2\n");  // header
  auto bad_header = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(bad_header.ok());
  EXPECT_NE(bad_header.status().message().find("header"), std::string::npos);
}

TEST_F(CsvWorkloadTest, BadRuleLineFailsWithFileAndLine) {
  WriteFile(dir_ / "rules.txt", "r1: ZIP=1 -> A=x\nr2: NOPE=1 -> A=x\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find(":2:"), std::string::npos);
  EXPECT_NE(dataset.status().message().find("'NOPE'"), std::string::npos);
}

TEST_F(CsvWorkloadTest, UnknownErrorModelFails) {
  WorkloadSpec spec;
  spec.name = "csv";
  spec.params = {{"clean", (dir_ / "clean.csv").string()},
                 {"rules", (dir_ / "rules.txt").string()},
                 {"errors", "gaussian"}};
  const auto dataset = WorkloadRegistry::Global().Resolve(spec);
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("'gaussian'"), std::string::npos);
}

TEST_F(CsvWorkloadTest, MissingFileFails) {
  WorkloadSpec spec = Spec();
  for (auto& [key, value] : spec.params) {
    if (key == "clean") value = (dir_ / "absent.csv").string();
  }
  EXPECT_FALSE(WorkloadRegistry::Global().Resolve(spec).ok());
}

TEST_F(CsvWorkloadTest, AutoNamedRulesAndCrlfFilesLoad) {
  // CRLF everywhere and a rule line without a "name:" prefix.
  WriteFile(dir_ / "clean.csv", "A,B,ZIP\r\nx,u,1\r\ny,v,2\r\ny,w,2\r\n");
  WriteFile(dir_ / "dirty.csv", "A,B,ZIP\r\nx,u,1\r\ny,v,9\r\ny,w,2\r\n");
  WriteFile(dir_ / "rules.txt", "ZIP=1 -> A=x\r\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->rules.size(), 1u);
  EXPECT_EQ(dataset->rules.rule(0).name(), "r1");
  EXPECT_EQ(dataset->corrupted_tuples, 1u);
}

TEST_F(CsvWorkloadTest, TruncatedDirtyRecordFailsWithRecordNumber) {
  // Record 3 of dirty.csv is cut short mid-row (a truncated download).
  WriteFile(dir_ / "dirty.csv",
            "A,B,ZIP\n"
            "x,u,1\n"
            "y,v\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("record 3"), std::string::npos)
      << dataset.status().message();
  EXPECT_NE(dataset.status().message().find("dirty.csv"), std::string::npos);
}

TEST_F(CsvWorkloadTest, TruncatedCleanRecordLeavesNoPartialLoad) {
  WriteFile(dir_ / "clean.csv",
            "A,B,ZIP\n"
            "x,u,1\n"
            "y\n"
            "y,w,2\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("record 3"), std::string::npos);
  EXPECT_NE(dataset.status().message().find("clean.csv"), std::string::npos);
}

TEST_F(CsvWorkloadTest, UnterminatedQuoteInDirtyFails) {
  WriteFile(dir_ / "dirty.csv",
            "A,B,ZIP\n"
            "x,u,1\n"
            "y,\"oops,9\n"
            "y,w,2\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("quote"), std::string::npos)
      << dataset.status().message();
}

TEST_F(CsvWorkloadTest, HeaderOnlyCleanFileFails) {
  WriteFile(dir_ / "clean.csv", "A,B,ZIP\n");
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("data record"), std::string::npos);
}

TEST_F(CsvWorkloadTest, LongerDirtyFileReportsRealRowCounts) {
  WriteFile(dir_ / "dirty.csv",
            "A,B,ZIP\n"
            "x,u,1\n"
            "y,v,9\n"
            "y,w,2\n"
            "z,z,3\n");  // one row too many
  const auto dataset = WorkloadRegistry::Global().Resolve(Spec());
  ASSERT_FALSE(dataset.ok());
  EXPECT_NE(dataset.status().message().find("row count"), std::string::npos);
  // The real counts, not where the diff loop happened to stop.
  EXPECT_NE(dataset.status().message().find("4"), std::string::npos);
  EXPECT_NE(dataset.status().message().find("3"), std::string::npos);
}

// -------------------------------------------------------- row stream ----

class RowStreamTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = TempDir("gdr_row_stream_test"); }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(RowStreamTest, CsvStreamDeliversAllRecordsAcrossChunkSizes) {
  WriteFile(dir_ / "t.csv", "A,B\n1,2\n3,4\n5,6\n7,8\n");
  for (std::size_t chunk : {1u, 2u, 3u, 100u}) {
    auto stream = CsvRowStream::Open((dir_ / "t.csv").string());
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ((*stream)->header(), (std::vector<std::string>{"A", "B"}));
    std::vector<std::vector<std::string>> all;
    while (true) {
      std::vector<std::vector<std::string>> rows;
      const auto pulled = (*stream)->NextChunk(chunk, &rows);
      ASSERT_TRUE(pulled.ok());
      if (*pulled == 0) break;
      for (auto& row : rows) all.push_back(std::move(row));
    }
    ASSERT_EQ(all.size(), 4u) << "chunk size " << chunk;
    EXPECT_EQ(all[0], (std::vector<std::string>{"1", "2"}));
    EXPECT_EQ(all[3], (std::vector<std::string>{"7", "8"}));
  }
}

TEST_F(RowStreamTest, AppendStreamRollsBackOnMidStreamArityError) {
  WriteFile(dir_ / "bad.csv", "A,B\n1,2\n3,4\nonly-one-field\n5,6\n");
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  ASSERT_TRUE(table.AppendRow({"pre", "loaded"}).ok());

  auto stream = CsvRowStream::Open((dir_ / "bad.csv").string());
  ASSERT_TRUE(stream.ok());
  // Chunk of 1 forces the failure to surface after good rows were already
  // appended — exactly the partial-load hazard AppendStream must undo.
  const auto appended = AppendStream(stream->get(), &table, /*chunk_rows=*/1);
  ASSERT_FALSE(appended.ok());
  EXPECT_NE(appended.status().message().find("record 4"), std::string::npos)
      << appended.status().message();
  EXPECT_EQ(table.num_rows(), 1u);  // all-or-nothing
  EXPECT_EQ(table.at(0, 0), "pre");
}

TEST_F(RowStreamTest, AppendStreamRollsBackOnUnterminatedQuote) {
  // Enough valid rows to overflow the reader's 64 KiB window, so Open()
  // succeeds and the bad final record only surfaces mid-stream — after
  // thousands of rows were already appended and must be rolled back.
  std::string csv = "A,B\n";
  for (int i = 0; i < 10'000; ++i) {
    csv += std::to_string(i) + ",ok\n";
  }
  csv += "\"open,4\n";
  WriteFile(dir_ / "bad.csv", csv);
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  auto stream = CsvRowStream::Open((dir_ / "bad.csv").string());
  ASSERT_TRUE(stream.ok());
  const auto appended = AppendStream(stream->get(), &table, /*chunk_rows=*/64);
  ASSERT_FALSE(appended.ok());
  EXPECT_NE(appended.status().message().find("quote"), std::string::npos)
      << appended.status().message();
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST_F(RowStreamTest, VectorStreamArityMismatchRollsBack) {
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  Table table(*schema);
  VectorRowStream stream({"A", "B"}, {{"1", "2"}, {"3", "4", "5"}});
  const auto appended = AppendStream(&stream, &table, /*chunk_rows=*/1);
  ASSERT_FALSE(appended.ok());
  EXPECT_EQ(table.num_rows(), 0u);
}

TEST_F(RowStreamTest, TableStreamRoundTripsRows) {
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  Table source(*schema);
  ASSERT_TRUE(source.AppendRow({"1", "2"}).ok());
  ASSERT_TRUE(source.AppendRow({"3", "4"}).ok());
  Table sink(*schema);
  TableRowStream stream(&source);
  const auto appended = AppendStream(&stream, &sink);
  ASSERT_TRUE(appended.ok());
  EXPECT_EQ(*appended, 2u);
  EXPECT_EQ(*sink.CountDifferingCells(source), 0u);
}

TEST_F(RowStreamTest, EmptyCsvFileFailsToOpen) {
  WriteFile(dir_ / "empty.csv", "");
  EXPECT_FALSE(CsvRowStream::Open((dir_ / "empty.csv").string()).ok());
}

// ---------------------------------------------------------- exporter ----

TEST(ExportWorkloadTest, WritesLoadableFiles) {
  const auto figure1 = WorkloadRegistry::Global().Resolve("figure1");
  ASSERT_TRUE(figure1.ok());
  const auto dir = TempDir("gdr_export_test");
  ASSERT_TRUE(ExportWorkload(*figure1, dir.string()).ok());
  const auto reloaded =
      WorkloadRegistry::Global().Resolve(CsvWorkloadSpec(dir.string()));
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->clean.num_rows(), figure1->clean.num_rows());
  EXPECT_EQ(*reloaded->clean.CountDifferingCells(figure1->clean), 0u);
  EXPECT_EQ(*reloaded->dirty.CountDifferingCells(figure1->dirty), 0u);
  EXPECT_EQ(reloaded->corrupted_tuples, figure1->corrupted_tuples);
  ASSERT_EQ(reloaded->rules.size(), figure1->rules.size());
  for (const RuleId id : figure1->rules.AllRuleIds()) {
    EXPECT_EQ(reloaded->rules.rule(id).ToString(reloaded->rules.schema()),
              figure1->rules.rule(id).ToString(figure1->rules.schema()));
  }
  std::filesystem::remove_all(dir);
}

TEST(ExportWorkloadTest, RejectsUnserializableRuleConstant) {
  auto schema = Schema::Make({"A", "B"});
  ASSERT_TRUE(schema.ok());
  Dataset dataset(*schema);
  dataset.name = "bad-rules";
  ASSERT_TRUE(dataset.clean.AppendRow({"x", "y"}).ok());
  dataset.dirty = dataset.clean;
  ASSERT_TRUE(dataset.rules
                  .AddRule("r1", {PatternCell{0, "a,b"}},
                           {PatternCell{1, "c"}})
                  .ok());
  const auto dir = TempDir("gdr_export_bad_test");
  const Status status = ExportWorkload(dataset, dir.string());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("'a,b'"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace gdr
