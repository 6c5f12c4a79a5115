#include "workflow/linalg.hpp"

#include <unordered_map>
#include <vector>

#include "util/strings.hpp"

namespace hetflow::workflow {

namespace {

double tile_flops(const char* kind, std::size_t tile_n) {
  const double n3 = static_cast<double>(tile_n) * static_cast<double>(tile_n) *
                    static_cast<double>(tile_n);
  const std::string k(kind);
  if (k == "potrf") {
    return n3 / 3.0;
  }
  if (k == "trsm" || k == "syrk") {
    return n3;
  }
  if (k == "gemm") {
    return 2.0 * n3;
  }
  if (k == "getrf") {
    return 2.0 * n3 / 3.0;
  }
  throw InvalidArgument("unknown tile kernel kind");
}

std::uint64_t tile_bytes(std::size_t tile_n) {
  return static_cast<std::uint64_t>(tile_n) * tile_n * sizeof(double);
}

/// SSA helper: one logical tile with versioned Workflow files.
class TileSsa {
 public:
  TileSsa(Workflow& w, std::size_t nt, std::size_t tile_n)
      : w_(&w), nt_(nt), bytes_(tile_bytes(tile_n)) {}

  /// Current version of tile (i, j), creating the initial input file on
  /// first use.
  std::size_t read(std::size_t i, std::size_t j) {
    const auto it = current_.find(key(i, j));
    if (it != current_.end()) {
      return it->second;
    }
    const std::size_t file =
        w_->add_file(util::format("A_%zu_%zu_v0", i, j), bytes_);
    current_[key(i, j)] = file;
    version_[key(i, j)] = 0;
    return file;
  }

  /// New version of tile (i, j) to be written by the caller's task.
  std::size_t write(std::size_t i, std::size_t j) {
    read(i, j);  // ensure v0 exists so versions stay dense
    const std::size_t v = ++version_[key(i, j)];
    const std::size_t file =
        w_->add_file(util::format("A_%zu_%zu_v%zu", i, j, v), bytes_);
    current_[key(i, j)] = file;
    return file;
  }

 private:
  std::size_t key(std::size_t i, std::size_t j) const { return i * nt_ + j; }
  Workflow* w_;
  std::size_t nt_;
  std::uint64_t bytes_;
  std::unordered_map<std::size_t, std::size_t> current_;
  std::unordered_map<std::size_t, std::size_t> version_;
};

}  // namespace

std::size_t cholesky_task_count(std::size_t nt) noexcept {
  return nt + nt * (nt - 1) / 2 + nt * (nt - 1) / 2 +
         nt * (nt - 1) * (nt - 2) / 6;
}

Workflow make_cholesky(std::size_t nt, std::size_t tile_n) {
  if (nt == 0) {
    throw InvalidArgument("cholesky needs nt >= 1");
  }
  Workflow w(util::format("cholesky-%zux%zu", nt, nt));
  TileSsa tiles(w, nt, tile_n);
  for (std::size_t k = 0; k < nt; ++k) {
    {
      const std::size_t in = tiles.read(k, k);
      const std::size_t out = tiles.write(k, k);
      w.add_task(util::format("potrf_%zu", k), "potrf",
                 tile_flops("potrf", tile_n), {in}, {out});
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      const std::size_t akk = tiles.read(k, k);
      const std::size_t in = tiles.read(i, k);
      const std::size_t out = tiles.write(i, k);
      w.add_task(util::format("trsm_%zu_%zu", i, k), "trsm",
                 tile_flops("trsm", tile_n), {akk, in}, {out});
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      {
        const std::size_t aik = tiles.read(i, k);
        const std::size_t in = tiles.read(i, i);
        const std::size_t out = tiles.write(i, i);
        w.add_task(util::format("syrk_%zu_%zu", i, k), "syrk",
                   tile_flops("syrk", tile_n), {aik, in}, {out});
      }
      for (std::size_t j = k + 1; j < i; ++j) {
        const std::size_t aik = tiles.read(i, k);
        const std::size_t ajk = tiles.read(j, k);
        const std::size_t in = tiles.read(i, j);
        const std::size_t out = tiles.write(i, j);
        w.add_task(util::format("gemm_%zu_%zu_%zu", i, j, k), "gemm",
                   tile_flops("gemm", tile_n), {aik, ajk, in}, {out});
      }
    }
  }
  return w;
}

Workflow make_lu(std::size_t nt, std::size_t tile_n) {
  if (nt == 0) {
    throw InvalidArgument("lu needs nt >= 1");
  }
  Workflow w(util::format("lu-%zux%zu", nt, nt));
  TileSsa tiles(w, nt, tile_n);
  for (std::size_t k = 0; k < nt; ++k) {
    {
      const std::size_t in = tiles.read(k, k);
      const std::size_t out = tiles.write(k, k);
      w.add_task(util::format("getrf_%zu", k), "getrf",
                 tile_flops("getrf", tile_n), {in}, {out});
    }
    for (std::size_t j = k + 1; j < nt; ++j) {
      const std::size_t akk = tiles.read(k, k);
      const std::size_t in = tiles.read(k, j);
      const std::size_t out = tiles.write(k, j);
      w.add_task(util::format("trsm_r_%zu_%zu", k, j), "trsm",
                 tile_flops("trsm", tile_n), {akk, in}, {out});
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      const std::size_t akk = tiles.read(k, k);
      const std::size_t in = tiles.read(i, k);
      const std::size_t out = tiles.write(i, k);
      w.add_task(util::format("trsm_c_%zu_%zu", i, k), "trsm",
                 tile_flops("trsm", tile_n), {akk, in}, {out});
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      for (std::size_t j = k + 1; j < nt; ++j) {
        const std::size_t aik = tiles.read(i, k);
        const std::size_t akj = tiles.read(k, j);
        const std::size_t in = tiles.read(i, j);
        const std::size_t out = tiles.write(i, j);
        w.add_task(util::format("gemm_%zu_%zu_%zu", i, j, k), "gemm",
                   tile_flops("gemm", tile_n), {aik, akj, in}, {out});
      }
    }
  }
  return w;
}

std::size_t submit_cholesky_inplace(core::Runtime& runtime, std::size_t nt,
                                    std::size_t tile_n,
                                    const CodeletLibrary& library) {
  if (nt == 0) {
    throw InvalidArgument("cholesky needs nt >= 1");
  }
  using data::AccessMode;
  const std::uint64_t bytes = tile_bytes(tile_n);
  std::vector<std::vector<data::DataId>> tile(nt,
                                              std::vector<data::DataId>(nt));
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      tile[i][j] = runtime.register_data(util::format("A_%zu_%zu", i, j),
                                         bytes);
    }
  }
  std::size_t submitted = 0;
  const core::CodeletPtr potrf = library.get("potrf");
  const core::CodeletPtr trsm = library.get("trsm");
  const core::CodeletPtr syrk = library.get("syrk");
  const core::CodeletPtr gemm = library.get("gemm");
  for (std::size_t k = 0; k < nt; ++k) {
    runtime.submit(util::format("potrf_%zu", k), potrf,
                   tile_flops("potrf", tile_n),
                   {{tile[k][k], AccessMode::ReadWrite}});
    ++submitted;
    for (std::size_t i = k + 1; i < nt; ++i) {
      runtime.submit(util::format("trsm_%zu_%zu", i, k), trsm,
                     tile_flops("trsm", tile_n),
                     {{tile[k][k], AccessMode::Read},
                      {tile[i][k], AccessMode::ReadWrite}});
      ++submitted;
    }
    for (std::size_t i = k + 1; i < nt; ++i) {
      runtime.submit(util::format("syrk_%zu_%zu", i, k), syrk,
                     tile_flops("syrk", tile_n),
                     {{tile[i][k], AccessMode::Read},
                      {tile[i][i], AccessMode::ReadWrite}});
      ++submitted;
      for (std::size_t j = k + 1; j < i; ++j) {
        runtime.submit(util::format("gemm_%zu_%zu_%zu", i, j, k), gemm,
                       tile_flops("gemm", tile_n),
                       {{tile[i][k], AccessMode::Read},
                        {tile[j][k], AccessMode::Read},
                        {tile[i][j], AccessMode::ReadWrite}});
        ++submitted;
      }
    }
  }
  return submitted;
}

}  // namespace hetflow::workflow
