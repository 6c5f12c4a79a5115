#include "data/handle.hpp"

namespace hetflow::data {

DataId DataRegistry::register_data(std::string_view name, std::uint64_t bytes,
                                   hw::MemoryNodeId home_node) {
  const auto id = static_cast<DataId>(handles_.size());
  handles_.push_back(
      DataHandle{id, names_.store(name), bytes, home_node});
  total_bytes_ += bytes;
  return id;
}

}  // namespace hetflow::data
