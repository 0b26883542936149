/// Figure 3 (left) of the paper: runtime of an aggregation accessing 25% of
/// 1M integer values — decoding the full vector upfront ("full
/// materialization") vs. decoding only the referenced positions ("positional
/// materialization"), per encoding. Expectation: positional is 2-3x faster
/// for most encodings, more so for short (OLTP-style) position lists.
/// Before timing, main asserts that every contender computes the same sum.

#include <benchmark/benchmark.h>

#include "fig3_segments.hpp"
#include "storage/dictionary_segment.hpp"
#include "storage/frame_of_reference_segment.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

const SegmentEncodingSpec kSpecs[] = {
    {EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger},
    {EncodingType::kDictionary, VectorCompressionType::kBitPacking128},
    {EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger},
    {EncodingType::kFrameOfReference, VectorCompressionType::kBitPacking128},
    {EncodingType::kRunLength, VectorCompressionType::kFixedWidthInteger},
};

// 25% of 1M (the figure's setting) plus a short OLTP-style list (§2.3: "for
// typical OLTP queries with short position lists, the advantage is even more
// pronounced").
const size_t kPositionCounts[] = {250'000, 1'000};

int64_t SumAt(const std::vector<int32_t>& decoded, const std::vector<ChunkOffset>& positions) {
  auto sum = int64_t{0};
  for (const auto position : positions) {
    sum += decoded[position];
  }
  return sum;
}

/// Full materialization: decode the whole stored segment, then gather.
int64_t SumFull(const AbstractSegment& segment, const std::vector<ChunkOffset>& positions) {
  return SumAt(DecodeSegmentAs<int32_t>(segment).values, positions);
}

/// Per-element full materialization: one positional Get on the compressed
/// attribute vector per row (plus dictionary lookup / frame rebase) — the
/// pre-block-decode baseline, kept so the block-decode win of SumFull stays
/// measurable (DESIGN.md §5d).
int64_t SumFullPerElement(const AbstractSegment& segment, const std::vector<ChunkOffset>& positions) {
  const auto* dictionary_segment = dynamic_cast<const DictionarySegment<int32_t>*>(&segment);
  const auto* for_segment = dynamic_cast<const FrameOfReferenceSegment<int32_t>*>(&segment);
  if (!dictionary_segment && !for_segment) {
    // Run-length has no per-element attribute vector; its decode is run-wise
    // either way, so the baseline equals SumFull.
    return SumFull(segment, positions);
  }
  auto decoded = std::vector<int32_t>(kFig3ValueCount);
  if (dictionary_segment) {
    const auto& dictionary = dictionary_segment->dictionary();
    const auto& attribute_vector = dictionary_segment->attribute_vector();
    for (auto index = size_t{0}; index < kFig3ValueCount; ++index) {
      decoded[index] = dictionary[attribute_vector.Get(index)];
    }
  } else {
    const auto& minima = for_segment->block_minima();
    const auto& offsets = for_segment->offset_values();
    for (auto index = size_t{0}; index < kFig3ValueCount; ++index) {
      decoded[index] =
          minima[index / FrameOfReferenceSegment<int32_t>::kBlockSize] + static_cast<int32_t>(offsets.Get(index));
    }
  }
  return SumAt(decoded, positions);
}

void BM_FullMaterialization(benchmark::State& state) {
  const auto table = MakeFig3Table(kSpecs[state.range(0)]);
  const auto segment = table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0});
  const auto positions = MakeFig3Positions(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumFull(*segment, positions));
  }
  state.SetLabel(Fig3Label(kSpecs[state.range(0)]) + " positions=" + std::to_string(state.range(1)));
}

void BM_FullMaterializationPerElement(benchmark::State& state) {
  const auto table = MakeFig3Table(kSpecs[state.range(0)]);
  const auto segment = table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0});
  const auto positions = MakeFig3Positions(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumFullPerElement(*segment, positions));
  }
  state.SetLabel(Fig3Label(kSpecs[state.range(0)]) + " positions=" + std::to_string(state.range(1)));
}

/// Positional materialization: decode a reference segment over the positions
/// (built outside the timed loop), no upfront decode of the whole segment.
void BM_PositionalMaterialization(benchmark::State& state) {
  const auto table = MakeFig3Table(kSpecs[state.range(0)]);
  const auto reference = MakeFig3Reference(table, MakeFig3Positions(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumPositional(reference));
  }
  state.SetLabel(Fig3Label(kSpecs[state.range(0)]) + " positions=" + std::to_string(state.range(1)));
}

void Configure(benchmark::internal::Benchmark* bench) {
  for (auto spec = 0; spec < 5; ++spec) {
    for (const auto count : kPositionCounts) {
      bench->Args({spec, static_cast<int64_t>(count)});
    }
  }
}

BENCHMARK(BM_FullMaterialization)->Apply(Configure)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FullMaterializationPerElement)->Apply(Configure)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PositionalMaterialization)->Apply(Configure)->Unit(benchmark::kMillisecond);

/// Aborts unless the three contenders agree for every configuration.
void CheckContendersAgree() {
  for (const auto& spec : kSpecs) {
    const auto table = MakeFig3Table(spec);
    const auto segment = table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0});
    for (const auto count : kPositionCounts) {
      const auto positions = MakeFig3Positions(count);
      const auto full = SumFull(*segment, positions);
      Assert(SumFullPerElement(*segment, positions) == full &&
                 SumPositional(MakeFig3Reference(table, positions)) == full,
             "Figure 3a contenders disagree on the sum for " + Fig3Label(spec));
    }
  }
}

}  // namespace

}  // namespace hyrise

int main(int argc, char** argv) {
  hyrise::CheckContendersAgree();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
