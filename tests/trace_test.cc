// Trace capture/replay tests (DESIGN.md Section 14): binary-format
// round-trips, strict corruption rejection, capture -> replay ResultRow
// byte-identity across shard counts and engines, and the unmap-churn ->
// buddy-fragmentation regression the tracegen profiles exist to drive.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/config.h"
#include "src/core/runner.h"
#include "src/core/simulation.h"
#include "src/report/result_row.h"
#include "src/topo/topology.h"
#include "src/trace/trace_format.h"
#include "src/trace/trace_reader.h"
#include "src/trace/trace_writer.h"
#include "src/trace/tracegen.h"
#include "src/workloads/spec.h"
#include "src/workloads/trace_workload.h"
#include "tests/golden_pin.h"

namespace numalp {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

trace::TraceHeader GoldenHeader() {
  trace::TraceHeader header;
  header.machine = "tiny";
  header.workload = "unit";
  header.seed = 7;
  header.threads = 2;
  header.accesses_per_thread_per_epoch = 8;
  SourceRegion r0;
  r0.base = 1ull << 32;
  r0.bytes = 2 * kMiB;
  r0.thp_eligible = true;
  r0.dram_intensity = 0.625;
  r0.mlp = 2.0;
  SourceRegion r1;
  r1.base = (1ull << 32) + (1ull << 30);
  r1.bytes = 64 * kKiB;
  r1.thp_eligible = false;
  r1.explicit_page = PageSize::k2M;
  r1.dram_intensity = 0.25;
  r1.mlp = 1.0;
  header.regions = {r0, r1};
  return header;
}

void ExpectRegionEq(const SourceRegion& want, const SourceRegion& got) {
  EXPECT_EQ(want.base, got.base);
  EXPECT_EQ(want.bytes, got.bytes);
  EXPECT_EQ(want.thp_eligible, got.thp_eligible);
  EXPECT_EQ(want.explicit_page, got.explicit_page);
  EXPECT_DOUBLE_EQ(want.dram_intensity, got.dram_intensity);
  EXPECT_DOUBLE_EQ(want.mlp, got.mlp);
}

// Writer -> reader golden: the decoded stream must equal what was fed in,
// including negative VA deltas, lifetime events, and the completion marker.
TEST(TraceFormatTest, RoundTripsHeaderEpochsAndLifetimeEvents) {
  const std::string path = TempPath("trace_roundtrip.bin");
  const trace::TraceHeader header = GoldenHeader();

  // Deltas exercise both varint tails: forward strides and a backward jump.
  const std::vector<WorkloadAccess> batch0 = {
      {header.regions[0].base + 4096, 0, false},
      {header.regions[0].base + 8192, 0, true},
      {header.regions[0].base + 64, 0, false},  // negative delta
      {header.regions[1].base + 300, 1, true},
  };
  const std::vector<WorkloadAccess> batch1 = {
      {header.regions[1].base, 1, false},
      {header.regions[1].base + 40960, 1, false},
  };
  RegionMapEvent map_event;
  map_event.region = 2;
  map_event.desc.base = (1ull << 32) + (2ull << 30);
  map_event.desc.bytes = 4 * kMiB;
  map_event.desc.thp_eligible = true;
  map_event.desc.dram_intensity = 0.75;
  map_event.desc.mlp = 4.0;
  RegionUnmapEvent unmap_event;
  unmap_event.region = 1;
  unmap_event.base = header.regions[1].base;
  unmap_event.bytes = header.regions[1].bytes;

  {
    trace::TraceWriter writer(path, header);
    writer.BeginEpoch(/*in_setup=*/true);
    writer.Batch(0, batch0);
    writer.EndEpoch(/*done_after=*/false);
    writer.BeginEpoch(/*in_setup=*/false);
    writer.RegionMap(map_event);
    writer.RegionUnmap(unmap_event);
    writer.Batch(1, batch1);
    writer.EndEpoch(/*done_after=*/true);
    writer.Finish(/*completed=*/true);
  }

  trace::TraceReader reader(path);
  EXPECT_EQ(reader.header().machine, header.machine);
  EXPECT_EQ(reader.header().workload, header.workload);
  EXPECT_EQ(reader.header().seed, header.seed);
  EXPECT_EQ(reader.header().threads, header.threads);
  EXPECT_EQ(reader.header().accesses_per_thread_per_epoch,
            header.accesses_per_thread_per_epoch);
  EXPECT_EQ(reader.header().Provenance(), "unit@tiny#7");
  ASSERT_EQ(reader.header().regions.size(), 2u);
  ExpectRegionEq(header.regions[0], reader.header().regions[0]);
  ExpectRegionEq(header.regions[1], reader.header().regions[1]);

  trace::TraceEpoch epoch;
  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_TRUE(epoch.in_setup);
  EXPECT_FALSE(epoch.done_after);
  EXPECT_TRUE(epoch.maps.empty());
  EXPECT_TRUE(epoch.unmaps.empty());
  ASSERT_GE(epoch.batches.size(), 1u);
  ASSERT_EQ(epoch.batches[0].size(), batch0.size());
  for (std::size_t i = 0; i < batch0.size(); ++i) {
    EXPECT_EQ(batch0[i].va, epoch.batches[0][i].va) << "access " << i;
    EXPECT_EQ(batch0[i].region, epoch.batches[0][i].region);
    EXPECT_EQ(batch0[i].write, epoch.batches[0][i].write);
  }

  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(epoch.in_setup);
  EXPECT_TRUE(epoch.done_after);
  ASSERT_EQ(epoch.maps.size(), 1u);
  EXPECT_EQ(epoch.maps[0].region, map_event.region);
  ExpectRegionEq(map_event.desc, epoch.maps[0].desc);
  ASSERT_EQ(epoch.unmaps.size(), 1u);
  EXPECT_EQ(epoch.unmaps[0].region, unmap_event.region);
  EXPECT_EQ(epoch.unmaps[0].base, unmap_event.base);
  EXPECT_EQ(epoch.unmaps[0].bytes, unmap_event.bytes);
  ASSERT_EQ(epoch.batches.size(), 2u);
  EXPECT_TRUE(epoch.batches[0].empty());
  ASSERT_EQ(epoch.batches[1].size(), batch1.size());
  for (std::size_t i = 0; i < batch1.size(); ++i) {
    EXPECT_EQ(batch1[i].va, epoch.batches[1][i].va) << "access " << i;
  }

  EXPECT_FALSE(reader.NextEpoch(&epoch));
  EXPECT_TRUE(epoch.trace_end);
  EXPECT_TRUE(reader.completed());
  EXPECT_EQ(trace::ReadTraceHeader(path).Provenance(), "unit@tiny#7");
  std::filesystem::remove(path);
}

// An abandoned writer (no Finish) marks the trace incomplete, not corrupt.
TEST(TraceFormatTest, AbandonedWriterRecordsIncomplete) {
  const std::string path = TempPath("trace_abandoned.bin");
  {
    trace::TraceWriter writer(path, GoldenHeader());
    writer.BeginEpoch(/*in_setup=*/false);
    writer.EndEpoch(/*done_after=*/false);
    // Destructor writes the end marker with completed=false.
  }
  trace::TraceReader reader(path);
  trace::TraceEpoch epoch;
  ASSERT_TRUE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(reader.NextEpoch(&epoch));
  EXPECT_FALSE(reader.completed());
  std::filesystem::remove(path);
}

void WriteSmallTrace(const std::string& path) {
  trace::TraceWriter writer(path, GoldenHeader());
  writer.BeginEpoch(/*in_setup=*/false);
  writer.Batch(0, {{(1ull << 32) + 4096, 0, true}});
  writer.EndEpoch(/*done_after=*/true);
  writer.Finish(/*completed=*/true);
}

void DrainTrace(const std::string& path) {
  trace::TraceReader reader(path);
  trace::TraceEpoch epoch;
  while (reader.NextEpoch(&epoch)) {
  }
}

TEST(TraceFormatTest, RejectsBadMagic) {
  const std::string path = TempPath("trace_badmagic.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  bytes[0] ^= 0xff;
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceFormatTest, RejectsTruncatedFile) {
  const std::string path = TempPath("trace_truncated.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 8u);
  bytes.resize(bytes.size() - 5);  // cut into the trailing chunk
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(TraceFormatTest, RejectsCorruptChunkPayload) {
  const std::string path = TempPath("trace_corrupt.bin");
  WriteSmallTrace(path);
  std::vector<std::uint8_t> bytes = ReadAll(path);
  ASSERT_GT(bytes.size(), 2u);
  bytes[bytes.size() - 2] ^= 0x40;  // flip a payload byte -> checksum mismatch
  WriteAll(path, bytes);
  EXPECT_THROW(DrainTrace(path), std::runtime_error);
  std::filesystem::remove(path);
}

std::size_t OpenFileDescriptors() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

// A reader whose constructor throws after opening the file must not keep
// it open: reject bad-magic and truncated-header files in a loop and the
// process's descriptor count must not grow.
TEST(TraceFormatTest, RejectedOpensDoNotLeakFileDescriptors) {
  const std::string bad_magic = TempPath("trace_leak_magic.bin");
  const std::string truncated = TempPath("trace_leak_truncated.bin");
  WriteSmallTrace(bad_magic);
  std::vector<std::uint8_t> bytes = ReadAll(bad_magic);
  ASSERT_GT(bytes.size(), 20u);
  std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 20);  // inside the header chunk
  WriteAll(truncated, cut);
  bytes[0] ^= 0xff;
  WriteAll(bad_magic, bytes);

  const std::size_t before = OpenFileDescriptors();
  for (int i = 0; i < 64; ++i) {
    EXPECT_THROW(trace::TraceReader{bad_magic}, std::runtime_error);
    EXPECT_THROW(trace::TraceReader{truncated}, std::runtime_error);
    EXPECT_THROW(trace::ReadTraceHeader(truncated), std::runtime_error);
  }
  EXPECT_EQ(OpenFileDescriptors(), before);
  std::filesystem::remove(bad_magic);
  std::filesystem::remove(truncated);
}

// Serializes a run through the real row schema so "byte-identical" means the
// committed CSV/JSONL bytes, not a float-tolerant comparison.
std::string SerializeRow(const RunSpec& spec, const RunResult& run) {
  const report::ResultRow row =
      report::MakeResultRow("trace_test", spec, run, /*baseline=*/nullptr,
                            /*seed_index=*/0, /*clock_ghz=*/2.1);
  std::string out;
  for (const report::ResultField& field : report::ResultSchema()) {
    out += report::FieldToString(row, field);
    out += '|';
  }
  return out;
}

// Capture once, then replay serially and at forced shards 4: every replayed
// row must reproduce the capturing run's row byte-for-byte (DESIGN.md
// Section 14's determinism contract), and the capturing run itself is
// pinned to tests/golden/trace_capture_wc.txt.
TEST(TraceCaptureReplayTest, ReplayReproducesCaptureRowAcrossShards) {
  const std::string path = TempPath("trace_capture_cg.bin");
  const Topology topo = Topology::Tiny();

  SimConfig sim;
  sim.seed = 42;
  sim.max_epochs = 6;
  sim.accesses_per_thread_per_epoch = 256;

  RunSpec capture;
  capture.topo = topo;
  capture.workload = MakeWorkloadSpec(BenchmarkId::kWC, topo);
  capture.workload.capture_file = path;
  capture.policy = MakePolicyConfig(PolicyKind::kThp);
  capture.sim = sim;
  Simulation capture_sim(topo, capture.workload, capture.policy, capture.sim);
  const RunResult capture_run = capture_sim.Run();
  const std::string golden = SerializeRow(capture, capture_run);
  EXPECT_NE(capture_run.trace_source.find("@tiny#42"), std::string::npos);
  std::string rendered;
  golden::RenderRun("WC/THP/capture", capture_run, &rendered);
  golden::ExpectMatchesGolden("trace_capture_wc", rendered);

  for (const int shards : {1, 4}) {
    RunSpec replay;
    replay.topo = topo;
    replay.workload = MakeTraceWorkloadSpec(path);
    replay.policy = MakePolicyConfig(PolicyKind::kThp);
    replay.sim = sim;
    replay.sim.shards = shards;
    replay.sim.shards_force = shards > 1;
    Simulation replay_sim(topo, replay.workload, replay.policy, replay.sim);
    const RunResult replay_run = replay_sim.Run();
    EXPECT_EQ(golden, SerializeRow(replay, replay_run)) << "shards=" << shards;
  }
  std::filesystem::remove(path);
}

// The ckpt-churn profile's mmap/munmap storm must reach the buddy allocator:
// real unmaps, real bytes freed, and a measurably fragmented free list
// compared with the same machine running a churn-free profile.
TEST(TraceChurnTest, CkptChurnUnmapsFragmentTheBuddyAllocator) {
  const Topology topo = Topology::Tiny();
  const std::string churn_path = TempPath("trace_tiny_churn.bin");
  const std::string calm_path = TempPath("trace_tiny_calm.bin");

  trace::TracegenOptions gen;
  gen.topo = topo;
  gen.seed = 42;
  gen.accesses_per_thread = 1024;
  gen.epochs = 40;
  gen.profile = "ckpt-churn";
  trace::GenerateTrace(gen, churn_path);
  gen.profile = "bert";  // steady phases, no checkpoint storm
  trace::GenerateTrace(gen, calm_path);

  SimConfig sim;
  sim.seed = 42;
  sim.max_epochs = 400;
  sim.accesses_per_thread_per_epoch = 1024;

  const auto replay = [&](const std::string& path) {
    Simulation s(topo, MakeTraceWorkloadSpec(path), MakePolicyConfig(PolicyKind::kLinux4K),
                 sim);
    return s.Run();
  };
  const RunResult churn = replay(churn_path);
  const RunResult calm = replay(calm_path);

  EXPECT_TRUE(churn.completed);
  EXPECT_GT(churn.region_maps, 0u);
  EXPECT_GT(churn.region_unmaps, 0u);
  EXPECT_GT(churn.unmapped_bytes, 0u);
  // The storm's interleaved retained pages must leave the free lists more
  // fragmented than the churn-free twin on the same machine and seed.
  EXPECT_GT(churn.frag_index_pct, calm.frag_index_pct);
  EXPECT_GT(churn.frag_index_pct, 0.0);

  std::filesystem::remove(churn_path);
  std::filesystem::remove(calm_path);
}

// Replay refuses a trace recorded for a different thread count: silently
// remapping threads would destroy the byte-identity contract.
TEST(TraceWorkloadTest, RejectsThreadCountMismatch) {
  const std::string path = TempPath("trace_mismatch.bin");
  trace::TracegenOptions gen;
  gen.topo = Topology::MachineA();  // 24 threads; Tiny has 4
  gen.seed = 1;
  gen.accesses_per_thread = 64;
  gen.epochs = 2;
  gen.profile = "bert";
  trace::GenerateTrace(gen, path);

  const Topology tiny = Topology::Tiny();
  PhysicalMemory phys(tiny);
  ThpState thp;
  AddressSpace space(phys, tiny, thp);
  EXPECT_THROW(TraceWorkload(path, space, tiny.num_cores()), std::runtime_error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace numalp
