#include "workflow/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "hw/presets.hpp"
#include "hw/serialize.hpp"
#include "workflow/dagfile.hpp"
#include "workflow/generators.hpp"

namespace hetflow::workflow {
namespace {

TEST(WorkflowSpec, GeneratorSpecs) {
  EXPECT_EQ(make_workflow_from_spec("montage:8").name(), "montage-8");
  EXPECT_EQ(make_workflow_from_spec("epigenomics:2,3").name(),
            "epigenomics-2x3");
  EXPECT_EQ(make_workflow_from_spec("cybershake:2,5").name(),
            "cybershake-2x5");
  EXPECT_EQ(make_workflow_from_spec("ligo:6,2").name(), "ligo-6");
  EXPECT_EQ(make_workflow_from_spec("cholesky:4").task_count(), 20u);
  EXPECT_EQ(make_workflow_from_spec("lu:3,512").name(), "lu-3x3");
  EXPECT_EQ(make_workflow_from_spec("wavefront:3").task_count(), 9u);
  EXPECT_EQ(make_workflow_from_spec("chain:5").task_count(), 5u);
  EXPECT_EQ(make_workflow_from_spec("bag:7").task_count(), 7u);
  EXPECT_EQ(make_workflow_from_spec("layered:3,4,0.5,9").task_count(), 12u);
  EXPECT_EQ(make_workflow_from_spec("forkjoin:4,2,0.5").task_count(), 10u);
}

TEST(WorkflowSpec, DefaultsWhenArgsOmitted) {
  EXPECT_EQ(make_workflow_from_spec("montage").name(), "montage-32");
  EXPECT_EQ(make_workflow_from_spec("cholesky").task_count(), 120u);
}

TEST(WorkflowSpec, ScaleForwarded) {
  const Workflow small = make_workflow_from_spec("montage:8", 1.0);
  const Workflow big = make_workflow_from_spec("montage:8", 2.0);
  EXPECT_NEAR(big.total_flops() / small.total_flops(), 2.0, 1e-9);
}

TEST(WorkflowSpec, ScaledSuffixesInArgs) {
  const Workflow w = make_workflow_from_spec("bag:10,2G,4Mi");
  EXPECT_DOUBLE_EQ(w.tasks()[0].flops, 2e9);
  EXPECT_EQ(w.files()[1].bytes, 4u << 20);
}

TEST(WorkflowSpec, DagFileLoaded) {
  const std::string path = ::testing::TempDir() + "/spec_test.dag";
  save_dagfile(make_ligo(4, 2), path);
  const Workflow loaded = make_workflow_from_spec(path);
  EXPECT_EQ(loaded.name(), "ligo-4");
  std::remove(path.c_str());
}

TEST(WorkflowSpec, Errors) {
  EXPECT_THROW(make_workflow_from_spec("nope:3"), ParseError);
  EXPECT_THROW(make_workflow_from_spec("montage:abc"), ParseError);
  EXPECT_THROW(make_workflow_from_spec("montage:8,,2"), ParseError);
}

/// The message of the error `spec` throws, which must be of type E.
template <typename E>
std::string spec_error(const std::string& spec) {
  try {
    make_workflow_from_spec(spec);
  } catch (const E& error) {
    return error.what();
  }
  ADD_FAILURE() << spec << " did not throw the expected error type";
  return {};
}

TEST(WorkflowSpec, NegativeCountIsAParseError) {
  // Cast unchecked, -3 became a count near 2^64 and the chain never
  // finished building.
  EXPECT_EQ(spec_error<ParseError>("chain:-3"),
            "argument 1 of spec 'chain:-3' must be a non-negative integer, "
            "got -3");
  EXPECT_THROW(make_workflow_from_spec("layered:4,4,1.0,-2"), ParseError);
  EXPECT_THROW(make_platform_from_spec("cpu:-1"), ParseError);
}

TEST(WorkflowSpec, NonIntegralCountIsAParseError) {
  EXPECT_EQ(spec_error<ParseError>("epigenomics:2,2.5"),
            "argument 2 of spec 'epigenomics:2,2.5' must be a non-negative "
            "integer, got 2.5");
  EXPECT_THROW(make_workflow_from_spec("montage:nan"), ParseError);
  EXPECT_THROW(make_workflow_from_spec("chain:1e30"), ParseError);
  EXPECT_THROW(make_platform_from_spec("hpc:4,0.5"), ParseError);
  // Scaled suffixes that land on an integer stay counts.
  EXPECT_EQ(make_workflow_from_spec("bag:1.5K").task_count(), 1500u);
}

TEST(WorkflowSpec, ZeroChainIsAnInvalidArgument) {
  EXPECT_EQ(spec_error<InvalidArgument>("chain:0"), "chain needs n >= 1");
}

TEST(WorkflowSpec, ZeroEpigenomicsLanesIsAnInvalidArgument) {
  EXPECT_EQ(spec_error<InvalidArgument>("epigenomics:0,2"),
            "epigenomics needs lanes >= 1 and splits >= 1");
}

TEST(WorkflowSpec, ZeroCholeskyTilesIsAnInvalidArgument) {
  EXPECT_EQ(spec_error<InvalidArgument>("cholesky:0"),
            "cholesky needs nt >= 1");
}

TEST(WorkflowSpec, NegativeOrNanRealArgumentIsAParseError) {
  // Passed through unchecked, -1 flops reached Workflow::add_task's
  // internal invariant instead of failing as bad input.
  EXPECT_EQ(spec_error<ParseError>("chain:5,-1"),
            "argument 2 of spec 'chain:5,-1' must be a non-negative number, "
            "got -1");
  EXPECT_EQ(spec_error<ParseError>("bag:4,nan"),
            "argument 2 of spec 'bag:4,nan' must be a non-negative number, "
            "got nan");
  EXPECT_THROW(make_workflow_from_spec("layered:4,4,-0.5"), ParseError);
  EXPECT_THROW(make_workflow_from_spec("forkjoin:4,2,nan"), ParseError);
}

TEST(WorkflowSpec, ZeroTileSizeIsAnInvalidArgument) {
  // A zero tile size used to build every kernel with 0 GFLOP on 0 bytes.
  EXPECT_EQ(spec_error<InvalidArgument>("cholesky:4,0"),
            "cholesky needs tile_n >= 1");
  EXPECT_EQ(spec_error<InvalidArgument>("lu:3,0"), "lu needs tile_n >= 1");
}

TEST(PlatformSpec, Presets) {
  EXPECT_EQ(make_platform_from_spec("workstation").name(), "workstation");
  EXPECT_EQ(make_platform_from_spec("edge").name(), "edge-node");
  EXPECT_EQ(make_platform_from_spec("cpu:6").device_count(), 6u);
  const hw::Platform hpc = make_platform_from_spec("hpc:4,2,1");
  EXPECT_EQ(hpc.devices_of_type(hw::DeviceType::Gpu).size(), 2u);
  EXPECT_EQ(hpc.devices_of_type(hw::DeviceType::Fpga).size(), 1u);
  EXPECT_EQ(make_platform_from_spec("cluster:2,2,1").device_count(), 6u);
}

TEST(PlatformSpec, JsonFileLoaded) {
  const std::string path = ::testing::TempDir() + "/spec_platform.json";
  hw::save_platform(hw::make_workstation(), path);
  const hw::Platform loaded = make_platform_from_spec(path);
  EXPECT_EQ(loaded.name(), "workstation");
  EXPECT_EQ(loaded.device_count(), 5u);
  std::remove(path.c_str());
}

TEST(PlatformSpec, Errors) {
  EXPECT_THROW(make_platform_from_spec("mainframe"), ParseError);
  EXPECT_THROW(make_platform_from_spec("missing.json"), Error);
}

}  // namespace
}  // namespace hetflow::workflow
