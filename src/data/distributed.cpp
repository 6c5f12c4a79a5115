#include "data/distributed.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hetflow::data {

DistributedDirectory::DistributedDirectory(
    const CoherenceDirectory& directory,
    std::vector<std::uint32_t> memory_to_node)
    : directory_(&directory) {
  HETFLOW_REQUIRE_MSG(!memory_to_node.empty(),
                      "memory-to-node grouping must not be empty");
  members_.resize(
      1 + *std::max_element(memory_to_node.begin(), memory_to_node.end()));
  for (std::size_t m = 0; m < memory_to_node.size(); ++m) {
    members_[memory_to_node[m]].push_back(static_cast<hw::MemoryNodeId>(m));
  }
}

void DistributedDirectory::append_replica_nodes(
    DataId data, std::vector<std::size_t>& out) const {
  for (std::size_t n = 0; n < members_.size(); ++n) {
    for (const hw::MemoryNodeId m : members_[n]) {
      if (directory_->has_valid_replica(data, m)) {
        out.push_back(n);
        break;
      }
    }
  }
}

}  // namespace hetflow::data
