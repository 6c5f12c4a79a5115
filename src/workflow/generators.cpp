#include "workflow/generators.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/strings.hpp"

namespace hetflow::workflow {

namespace {

constexpr std::uint64_t kMB = 1024ull * 1024ull;

std::uint64_t scaled(double scale, double bytes) {
  return static_cast<std::uint64_t>(scale * bytes);
}

}  // namespace

Workflow make_montage(std::size_t tiles, double scale) {
  if (tiles < 2) {
    throw InvalidArgument(
        util::format("montage needs at least 2 tiles, got %zu", tiles));
  }
  Workflow w(util::format("montage-%zu", tiles));

  std::vector<std::size_t> raw(tiles), projected(tiles);
  for (std::size_t i = 0; i < tiles; ++i) {
    raw[i] = w.add_file(util::format("raw_%zu.fits", i),
                        scaled(scale, 4.0 * kMB));
    projected[i] = w.add_file(util::format("proj_%zu.fits", i),
                              scaled(scale, 4.2 * kMB));
    w.add_task(util::format("mProjectPP_%zu", i), "mProjectPP",
               scale * 2.0e9, {raw[i]}, {projected[i]});
  }

  // Difference/fit over overlapping tile pairs: ring neighbours plus a
  // second-neighbour diagonal, matching Montage's overlap density.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i + 1 < tiles; ++i) {
    pairs.push_back({i, i + 1});
  }
  for (std::size_t i = 0; i + 2 < tiles; ++i) {
    pairs.push_back({i, i + 2});
  }
  std::vector<std::size_t> fits;
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t fit = w.add_file(util::format("fit_%zu.tbl", p),
                                       scaled(scale, 0.05 * kMB));
    fits.push_back(fit);
    w.add_task(util::format("mDiffFit_%zu", p), "mDiffFit", scale * 8.0e8,
               {projected[pairs[p].first], projected[pairs[p].second]},
               {fit});
  }

  const std::size_t concat = w.add_file("fits.tbl", scaled(scale, 0.2 * kMB));
  w.add_task("mConcatFit", "mConcatFit",
             scale * (5.0e8 + 1.0e7 * static_cast<double>(pairs.size())),
             fits, {concat});

  const std::size_t corrections =
      w.add_file("corrections.tbl", scaled(scale, 0.1 * kMB));
  w.add_task("mBgModel", "mBgModel",
             scale * (1.0e9 + 5.0e7 * static_cast<double>(tiles)), {concat},
             {corrections});

  std::vector<std::size_t> corrected(tiles);
  for (std::size_t i = 0; i < tiles; ++i) {
    corrected[i] = w.add_file(util::format("corr_%zu.fits", i),
                              scaled(scale, 4.2 * kMB));
    w.add_task(util::format("mBackground_%zu", i), "mBackground",
               scale * 8.0e8, {projected[i], corrections}, {corrected[i]});
  }

  const std::size_t table = w.add_file("images.tbl", scaled(scale, 0.1 * kMB));
  w.add_task("mImgtbl", "mImgtbl",
             scale * (2.0e8 + 1.0e7 * static_cast<double>(tiles)), corrected,
             {table});

  std::vector<std::size_t> add_inputs = corrected;
  add_inputs.push_back(table);
  const std::size_t mosaic =
      w.add_file("mosaic.fits", scaled(scale, 3.0 * kMB * static_cast<double>(tiles)));
  w.add_task("mAdd", "mAdd",
             scale * (1.0e9 + 2.0e8 * static_cast<double>(tiles)), add_inputs,
             {mosaic});

  const std::size_t shrunk =
      w.add_file("mosaic_small.fits", scaled(scale, 8.0 * kMB));
  w.add_task("mShrink", "mShrink", scale * 8.0e8, {mosaic}, {shrunk});
  const std::size_t jpeg = w.add_file("mosaic.jpg", scaled(scale, 2.0 * kMB));
  w.add_task("mJPEG", "mJPEG", scale * 5.0e8, {shrunk}, {jpeg});
  return w;
}

Workflow make_epigenomics(std::size_t lanes, std::size_t splits,
                          double scale) {
  if (lanes == 0 || splits == 0) {
    throw InvalidArgument("epigenomics needs lanes >= 1 and splits >= 1");
  }
  Workflow w(util::format("epigenomics-%zux%zu", lanes, splits));
  std::vector<std::size_t> lane_merges;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::size_t fastq = w.add_file(
        util::format("lane%zu.fastq", lane), scaled(scale, 16.0 * kMB));
    std::vector<std::size_t> chunks(splits);
    for (std::size_t c = 0; c < splits; ++c) {
      chunks[c] = w.add_file(util::format("l%zu_chunk%zu.fastq", lane, c),
                             scaled(scale, 16.0 * kMB / static_cast<double>(splits)));
    }
    w.add_task(util::format("fastqSplit_%zu", lane), "fastqSplit",
               scale * 4.0e8, {fastq}, chunks);
    std::vector<std::size_t> mapped(splits);
    for (std::size_t c = 0; c < splits; ++c) {
      const auto tag = util::format("l%zu_c%zu", lane, c);
      const std::size_t filtered = w.add_file("filt_" + tag,
                                              scaled(scale, 12.0 * kMB / static_cast<double>(splits)));
      w.add_task("filterContams_" + tag, "filterContams", scale * 4.0e8,
                 {chunks[c]}, {filtered});
      const std::size_t sanger = w.add_file("sanger_" + tag,
                                            scaled(scale, 12.0 * kMB / static_cast<double>(splits)));
      w.add_task("sol2sanger_" + tag, "sol2sanger", scale * 3.0e8,
                 {filtered}, {sanger});
      const std::size_t bfq = w.add_file("bfq_" + tag,
                                         scaled(scale, 8.0 * kMB / static_cast<double>(splits)));
      w.add_task("fastq2bfq_" + tag, "fastq2bfq", scale * 3.0e8, {sanger},
                 {bfq});
      mapped[c] = w.add_file("map_" + tag,
                             scaled(scale, 10.0 * kMB / static_cast<double>(splits)));
      w.add_task("map_" + tag, "map", scale * 6.0e9, {bfq}, {mapped[c]});
    }
    const std::size_t merged = w.add_file(
        util::format("lane%zu.map", lane), scaled(scale, 10.0 * kMB));
    w.add_task(util::format("mapMerge_%zu", lane), "mapMerge", scale * 1.0e9,
               mapped, {merged});
    lane_merges.push_back(merged);
  }
  const std::size_t global = w.add_file("all.map", scaled(scale, 10.0 * kMB *
                                                          static_cast<double>(lanes)));
  w.add_task("mapMergeGlobal", "mapMerge", scale * 2.0e9, lane_merges,
             {global});
  const std::size_t index = w.add_file("all.bfa", scaled(scale, 6.0 * kMB));
  w.add_task("maqIndex", "maqIndex", scale * 1.5e9, {global}, {index});
  const std::size_t pile = w.add_file("pileup.txt", scaled(scale, 4.0 * kMB));
  w.add_task("pileup", "pileup", scale * 2.0e9, {index}, {pile});
  return w;
}

Workflow make_cybershake(std::size_t sites, std::size_t variations,
                         double scale) {
  if (sites == 0 || variations == 0) {
    throw InvalidArgument("cybershake needs sites >= 1 and variations >= 1");
  }
  Workflow w(util::format("cybershake-%zux%zu", sites, variations));
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t sgt_x = w.add_file(util::format("sgt%zu_x", s),
                                         scaled(scale, 40.0 * kMB));
    const std::size_t sgt_y = w.add_file(util::format("sgt%zu_y", s),
                                         scaled(scale, 40.0 * kMB));
    const std::size_t ext_x = w.add_file(util::format("ext%zu_x", s),
                                         scaled(scale, 10.0 * kMB));
    const std::size_t ext_y = w.add_file(util::format("ext%zu_y", s),
                                         scaled(scale, 10.0 * kMB));
    w.add_task(util::format("ExtractSGT_x_%zu", s), "ExtractSGT",
               scale * 1.5e9, {sgt_x}, {ext_x});
    w.add_task(util::format("ExtractSGT_y_%zu", s), "ExtractSGT",
               scale * 1.5e9, {sgt_y}, {ext_y});
    std::vector<std::size_t> seis(variations), peaks(variations);
    for (std::size_t v = 0; v < variations; ++v) {
      const auto tag = util::format("s%zu_v%zu", s, v);
      seis[v] = w.add_file("seis_" + tag, scaled(scale, 0.3 * kMB));
      w.add_task("SeismogramSynthesis_" + tag, "SeismogramSynthesis",
                 scale * 3.0e9, {ext_x, ext_y}, {seis[v]});
      peaks[v] = w.add_file("peak_" + tag, scaled(scale, 0.05 * kMB));
      w.add_task("PeakValCalcOkaya_" + tag, "PeakValCalcOkaya",
                 scale * 4.0e8, {seis[v]}, {peaks[v]});
    }
    const std::size_t zipseis = w.add_file(util::format("seis%zu.zip", s),
                                           scaled(scale, 0.3 * kMB *
                                                  static_cast<double>(variations)));
    w.add_task(util::format("ZipSeis_%zu", s), "ZipSeis",
               scale * (2.0e8 + 2.0e7 * static_cast<double>(variations)),
               seis, {zipseis});
    const std::size_t zippsa = w.add_file(util::format("psa%zu.zip", s),
                                          scaled(scale, 0.1 * kMB *
                                                 static_cast<double>(variations)));
    w.add_task(util::format("ZipPSA_%zu", s), "ZipPSA",
               scale * (2.0e8 + 1.0e7 * static_cast<double>(variations)),
               peaks, {zippsa});
  }
  return w;
}

Workflow make_ligo(std::size_t templates, std::size_t group, double scale) {
  if (templates == 0 || group == 0) {
    throw InvalidArgument("ligo needs templates >= 1 and group >= 1");
  }
  Workflow w(util::format("ligo-%zu", templates));
  std::vector<std::size_t> inspiral_out(templates);
  for (std::size_t t = 0; t < templates; ++t) {
    const std::size_t frame = w.add_file(util::format("frame_%zu.gwf", t),
                                         scaled(scale, 6.0 * kMB));
    const std::size_t bank = w.add_file(util::format("bank_%zu.xml", t),
                                        scaled(scale, 0.5 * kMB));
    w.add_task(util::format("TmpltBank_%zu", t), "TmpltBank", scale * 1.5e9,
               {frame}, {bank});
    inspiral_out[t] = w.add_file(util::format("insp_%zu.xml", t),
                                 scaled(scale, 0.8 * kMB));
    w.add_task(util::format("Inspiral_%zu", t), "Inspiral", scale * 8.0e9,
               {frame, bank}, {inspiral_out[t]});
  }
  // Coincidence analysis in groups, then a second matched-filter pass.
  std::vector<std::size_t> sire_inputs;
  for (std::size_t g = 0; g * group < templates; ++g) {
    const std::size_t lo = g * group;
    const std::size_t hi = std::min(lo + group, templates);
    std::vector<std::size_t> members(inspiral_out.begin() +
                                         static_cast<std::ptrdiff_t>(lo),
                                     inspiral_out.begin() +
                                         static_cast<std::ptrdiff_t>(hi));
    const std::size_t thinca = w.add_file(util::format("thinca_%zu.xml", g),
                                          scaled(scale, 0.4 * kMB));
    w.add_task(util::format("Thinca_%zu", g), "Thinca",
               scale * (6.0e8 + 1.0e8 * static_cast<double>(members.size())),
               members, {thinca});
    const std::size_t trig = w.add_file(util::format("trig_%zu.xml", g),
                                        scaled(scale, 0.3 * kMB));
    w.add_task(util::format("TrigBank_%zu", g), "TrigBank", scale * 4.0e8,
               {thinca}, {trig});
    sire_inputs.push_back(trig);
  }
  const std::size_t summary = w.add_file("events.xml",
                                         scaled(scale, 0.2 * kMB));
  w.add_task("Sire", "Sire",
             scale * (4.0e8 + 5.0e7 * static_cast<double>(sire_inputs.size())),
             sire_inputs, {summary});
  return w;
}

Workflow make_sipht(std::size_t regions, std::size_t patsers, double scale) {
  if (regions == 0 || patsers == 0) {
    throw InvalidArgument("sipht needs regions >= 1 and patsers >= 1");
  }
  Workflow w(util::format("sipht-%zu", regions));
  std::vector<std::size_t> region_outputs;
  for (std::size_t r = 0; r < regions; ++r) {
    const std::size_t genome = w.add_file(
        util::format("region%zu.fasta", r), scaled(scale, 2.0 * kMB));
    // Patser fan: independent motif scans over the same region.
    std::vector<std::size_t> patser_outs(patsers);
    for (std::size_t p = 0; p < patsers; ++p) {
      patser_outs[p] = w.add_file(util::format("patser_%zu_%zu", r, p),
                                  scaled(scale, 0.05 * kMB));
      w.add_task(util::format("Patser_%zu_%zu", r, p), "filter",
                 scale * 5.0e8, {genome}, {patser_outs[p]});
    }
    const std::size_t patser_concat = w.add_file(
        util::format("patser_concat_%zu", r), scaled(scale, 0.3 * kMB));
    w.add_task(util::format("PatserConcat_%zu", r), "cpu-serial",
               scale * (1.0e8 + 2.0e7 * static_cast<double>(patsers)),
               patser_outs, {patser_concat});
    // BLAST family + folding, all reading the region.
    std::vector<std::size_t> analyses;
    for (const char* stage :
         {"Blast", "BlastSynteny", "BlastParalogues", "TransTerm",
          "FindTerm", "RNAMotif"}) {
      const std::size_t out = w.add_file(
          util::format("%s_%zu", stage, r), scaled(scale, 0.2 * kMB));
      // BLAST variants are heavy and accelerator-friendly; the rest are
      // CPU glue.
      const bool heavy = util::starts_with(stage, "Blast");
      w.add_task(util::format("%s_%zu", stage, r),
                 heavy ? "compute" : "cpu-serial",
                 scale * (heavy ? 4.0e9 : 6.0e8), {genome}, {out});
      analyses.push_back(out);
    }
    analyses.push_back(patser_concat);
    const std::size_t srna = w.add_file(util::format("srna_%zu", r),
                                        scaled(scale, 0.1 * kMB));
    w.add_task(util::format("SRNA_%zu", r), "cpu-serial", scale * 8.0e8,
               analyses, {srna});
    region_outputs.push_back(srna);
  }
  const std::size_t annotation =
      w.add_file("srna_annotation", scaled(scale, 0.2 * kMB));
  w.add_task("SRNAAnnotate", "cpu-serial",
             scale * (5.0e8 + 1.0e8 * static_cast<double>(regions)),
             region_outputs, {annotation});
  return w;
}

Workflow make_random_layered(std::size_t layers, std::size_t width,
                             double ccr, std::uint64_t seed,
                             double mean_flops) {
  if (layers == 0 || width == 0) {
    throw InvalidArgument("layered DAG needs layers >= 1 and width >= 1");
  }
  if (!(ccr >= 0.0)) {
    throw InvalidArgument("ccr cannot be negative");
  }
  util::Rng rng(seed);
  Workflow w(util::format("layered-%zux%zu-ccr%.2g", layers, width, ccr));
  // Reference machine for the CCR calibration: 50 GFLOP/s compute,
  // 16 GB/s interconnect.
  constexpr double kRefFlops = 50e9;
  constexpr double kRefBandwidth = 16e9;

  std::vector<std::vector<std::size_t>> out_files(layers);
  std::vector<std::vector<std::size_t>> task_of(layers);
  for (std::size_t layer = 0; layer < layers; ++layer) {
    for (std::size_t i = 0; i < width; ++i) {
      const double flops = mean_flops * rng.lognormal(-0.125, 0.5);
      const double exec_ref = flops / kRefFlops;
      const auto bytes = static_cast<std::uint64_t>(
          std::max(1.0, ccr * exec_ref * kRefBandwidth));
      const std::size_t out = w.add_file(
          util::format("d_%zu_%zu", layer, i), bytes);
      std::vector<std::size_t> inputs;
      if (layer > 0) {
        const std::size_t fan =
            1 + static_cast<std::size_t>(rng.uniform_int(0, 2));
        for (std::size_t f = 0; f < fan; ++f) {
          inputs.push_back(
              out_files[layer - 1][rng.index(out_files[layer - 1].size())]);
        }
        std::sort(inputs.begin(), inputs.end());
        inputs.erase(std::unique(inputs.begin(), inputs.end()), inputs.end());
      }
      w.add_task(util::format("t_%zu_%zu", layer, i), "compute", flops,
                 inputs, {out});
      out_files[layer].push_back(out);
    }
  }
  return w;
}

Workflow make_fork_join(std::size_t width, std::size_t stages,
                        double cost_sigma, std::uint64_t seed,
                        double mean_flops) {
  if (width == 0 || stages == 0) {
    throw InvalidArgument("fork-join needs width >= 1 and stages >= 1");
  }
  util::Rng rng(seed);
  Workflow w(util::format("forkjoin-%zux%zu", width, stages));
  std::size_t carry = w.add_file("input", 2 * kMB);
  for (std::size_t stage = 0; stage < stages; ++stage) {
    std::vector<std::size_t> branch_files(width);
    for (std::size_t b = 0; b < width; ++b) {
      // Unit-mean lognormal skew: mu = -sigma^2 / 2.
      const double skew =
          cost_sigma > 0.0
              ? rng.lognormal(-cost_sigma * cost_sigma / 2.0, cost_sigma)
              : 1.0;
      branch_files[b] =
          w.add_file(util::format("s%zu_b%zu", stage, b), 1 * kMB);
      w.add_task(util::format("work_%zu_%zu", stage, b), "compute",
                 mean_flops * skew, {carry}, {branch_files[b]});
    }
    carry = w.add_file(util::format("join_%zu", stage), 2 * kMB);
    w.add_task(util::format("join_%zu", stage), "reduce",
               mean_flops / 4.0 +
                   1e7 * static_cast<double>(width),
               branch_files, {carry});
  }
  return w;
}

Workflow make_wavefront(std::size_t n, double flops_per_task,
                        std::uint64_t bytes) {
  if (n == 0) {
    throw InvalidArgument("wavefront needs n >= 1");
  }
  Workflow w(util::format("wavefront-%zu", n));
  std::vector<std::vector<std::size_t>> cell(n, std::vector<std::size_t>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cell[i][j] = w.add_file(util::format("c_%zu_%zu", i, j), bytes);
      std::vector<std::size_t> inputs;
      if (i > 0) {
        inputs.push_back(cell[i - 1][j]);
      }
      if (j > 0) {
        inputs.push_back(cell[i][j - 1]);
      }
      w.add_task(util::format("w_%zu_%zu", i, j), "stencil", flops_per_task,
                 inputs, {cell[i][j]});
    }
  }
  return w;
}

Workflow make_chain(std::size_t n, double flops, std::uint64_t bytes) {
  if (n == 0) {
    throw InvalidArgument("chain needs n >= 1");
  }
  Workflow w(util::format("chain-%zu", n));
  std::size_t prev = w.add_file("input", bytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t next = w.add_file(util::format("d_%zu", i), bytes);
    w.add_task(util::format("t_%zu", i), "compute", flops, {prev}, {next});
    prev = next;
  }
  return w;
}

Workflow make_bag(std::size_t n, double flops, std::uint64_t bytes) {
  if (n == 0) {
    throw InvalidArgument("bag needs n >= 1");
  }
  Workflow w(util::format("bag-%zu", n));
  const std::size_t input = w.add_file("input", bytes);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t out = w.add_file(util::format("d_%zu", i), bytes);
    w.add_task(util::format("t_%zu", i), "compute", flops, {input}, {out});
  }
  return w;
}

}  // namespace hetflow::workflow
