/// Figure 3 (right) of the paper: static polymorphism (the engine's decoder,
/// encodings resolved at compile time) vs. dynamic polymorphism (virtual
/// accessor call per value, the previous system's approach) for an
/// aggregation over 25% of 1M integer values. Expectation: static is strictly
/// cheaper, up to ~3x. Before timing, main asserts that both contenders
/// compute the same sum.

#include <benchmark/benchmark.h>

#include "fig3_segments.hpp"
#include "storage/segment_accessor.hpp"
#include "utils/assert.hpp"

namespace hyrise {

namespace {

const SegmentEncodingSpec kSpecs[] = {
    {EncodingType::kUnencoded, VectorCompressionType::kFixedWidthInteger},
    {EncodingType::kDictionary, VectorCompressionType::kFixedWidthInteger},
    {EncodingType::kDictionary, VectorCompressionType::kBitPacking128},
    {EncodingType::kFrameOfReference, VectorCompressionType::kFixedWidthInteger},
    {EncodingType::kRunLength, VectorCompressionType::kFixedWidthInteger},
};

constexpr auto kPositionCount = kFig3ValueCount / 4;

/// Dynamic polymorphism: one virtual accessor call per value — how the
/// previous version of the system resolved storage layouts at runtime.
int64_t SumDynamic(const AbstractSegment& segment, const std::vector<ChunkOffset>& positions) {
  const auto accessor = CreateSegmentAccessor<int32_t>(segment);
  auto sum = int64_t{0};
  for (const auto position : positions) {
    const auto value = accessor->Access(position);
    if (value.has_value()) {
      sum += *value;
    }
  }
  return sum;
}

/// Static polymorphism: the decoder gathers the positions through a
/// reference segment, one compiled loop per encoding, no virtual calls inside.
void BM_StaticPolymorphism(benchmark::State& state) {
  const auto table = MakeFig3Table(kSpecs[state.range(0)]);
  const auto reference = MakeFig3Reference(table, MakeFig3Positions(kPositionCount));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumPositional(reference));
  }
  state.SetLabel(Fig3Label(kSpecs[state.range(0)]));
}

void BM_DynamicPolymorphism(benchmark::State& state) {
  const auto table = MakeFig3Table(kSpecs[state.range(0)]);
  const auto segment = table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0});
  const auto positions = MakeFig3Positions(kPositionCount);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SumDynamic(*segment, positions));
  }
  state.SetLabel(Fig3Label(kSpecs[state.range(0)]));
}

BENCHMARK(BM_StaticPolymorphism)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynamicPolymorphism)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

/// Aborts unless both contenders agree for every encoding.
void CheckContendersAgree() {
  const auto positions = MakeFig3Positions(kPositionCount);
  for (const auto& spec : kSpecs) {
    const auto table = MakeFig3Table(spec);
    const auto segment = table->GetChunk(ChunkID{0})->GetSegment(ColumnID{0});
    Assert(SumPositional(MakeFig3Reference(table, positions)) == SumDynamic(*segment, positions),
           "Figure 3b contenders disagree on the sum for " + Fig3Label(spec));
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
