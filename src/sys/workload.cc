#include "workload.hh"

#include "util/diag.hh"
#include "util/validate.hh"

namespace cryo::sys
{

void
Workload::validate() const
{
    Validator v{"Workload", name};
    v.positive("cpiCore", cpiCore)
        .nonNegative("l2Apki", l2Apki)
        .nonNegative("l3Apki", l3Apki)
        .nonNegative("cohPki", cohPki)
        .nonNegative("dramApki", dramApki)
        .positive("mlp", mlp)
        .nonNegative("syncPki", syncPki)
        .nonNegative("branchMpki", branchMpki)
        .nonNegative("prefetchApki", prefetchApki)
        .done();
}

/*
 * PARSEC 2.1 parameters, calibrated so the 300 K baseline CPI stacks
 * reproduce Fig. 3 (NoC ~45.6% of CPI on average, 76.6% max) and the
 * Fig. 23 per-workload speed-ups keep their shape: streamcluster is
 * barrier-dominated (largest CryoBus gain), bodytrack/ferret/swaptions
 * are cache/memory-access heavy, bodytrack and x264 are memory-bound
 * (smallest CryoSP gain).
 */
std::vector<Workload>
parsec21()
{
    auto mk = [](const char *name, double cpi, double l2, double l3,
                 double coh, double dram, double mlp, double sync,
                 double br) {
        Workload w;
        w.name = name;
        w.cpiCore = cpi;
        w.l2Apki = l2;
        w.l3Apki = l3;
        w.cohPki = coh;
        w.dramApki = dram;
        w.mlp = mlp;
        w.syncPki = sync;
        w.branchMpki = br;
        return w;
    };
    //        name            cpi   l2    l3   coh  dram  mlp  sync  br
    return {
        mk("blackscholes", 0.55, 8.0, 0.8, 6.0, 0.20, 2.0, 0.02, 6.0),
        mk("bodytrack", 0.80, 30.0, 4.5, 34.0, 2.6, 1.8, 0.05, 12.0),
        mk("canneal", 0.95, 40.0, 5.5, 60.0, 5.5, 2.6, 0.03, 18.0),
        mk("dedup", 0.75, 28.0, 4.5, 38.0, 2.2, 2.1, 0.25, 14.0),
        mk("facesim", 0.72, 24.0, 3.8, 26.0, 1.8, 2.0, 0.12, 10.0),
        mk("ferret", 0.70, 32.0, 4.2, 44.0, 2.4, 2.0, 0.12, 13.0),
        mk("fluidanimate", 0.68, 20.0, 3.0, 36.0, 1.2, 2.0, 0.35, 9.0),
        mk("freqmine", 0.78, 22.0, 3.2, 18.0, 1.1, 2.0, 0.06, 15.0),
        mk("raytrace", 0.72, 16.0, 2.2, 12.0, 0.9, 2.0, 0.08, 11.0),
        mk("streamcluster", 0.60, 26.0, 4.0, 55.0, 2.0, 2.0, 1.35, 8.0),
        mk("swaptions", 0.62, 34.0, 4.2, 95.0, 2.8, 2.0, 0.30, 9.0),
        mk("vips", 0.74, 24.0, 3.5, 20.0, 1.6, 2.0, 0.10, 12.0),
        mk("x264", 0.82, 34.0, 4.2, 26.0, 3.2, 2.4, 0.04, 16.0),
    };
}

/*
 * SPEC 2006/2017 rate mode (64 copies) with the inefficient stride
 * prefetcher of Section 7.1 active even on cache hits: prefetchApki
 * injects interconnect traffic without stalling the core. The four
 * workloads the paper singles out as bus-contention victims
 * (cactusADM, gcc, xalancbmk, libquantum) carry the largest prefetch
 * traffic, pushing them past the 1-way CryoBus bandwidth.
 */
std::vector<Workload>
specRateAggressivePrefetch()
{
    auto mk = [](const char *name, double cpi, double l2, double l3,
                 double dram, double mlp, double br, double prefetch) {
        Workload w;
        w.name = name;
        w.cpiCore = cpi;
        w.l2Apki = l2;
        w.l3Apki = l3;
        w.cohPki = 0.0; // rate-mode copies share nothing
        w.dramApki = dram;
        w.mlp = mlp;
        w.syncPki = 0.0;
        w.branchMpki = br;
        w.prefetchApki = prefetch;
        return w;
    };
    //      name          cpi   l2    l3   dram  mlp  brM  prefetch
    return {
        mk("perlbench", 0.70, 18.0, 3.0, 0.8, 2.0, 14.0, 3.0),
        mk("bzip2", 0.75, 22.0, 4.0, 1.5, 2.0, 12.0, 3.5),
        mk("gcc", 0.80, 30.0, 8.0, 2.5, 2.0, 16.0, 11.0),
        mk("mcf", 1.10, 55.0, 11.0, 9.0, 3.2, 18.0, 2.0),
        mk("milc", 0.85, 30.0, 7.0, 5.0, 3.0, 4.0, 2.5),
        mk("cactusADM", 0.90, 34.0, 9.0, 5.5, 2.8, 3.0, 10.0),
        mk("leslie3d", 0.85, 28.0, 6.5, 4.2, 2.8, 4.0, 4.5),
        mk("namd", 0.60, 10.0, 1.5, 0.4, 2.0, 5.0, 1.5),
        mk("gobmk", 0.75, 14.0, 2.2, 0.6, 2.0, 20.0, 2.0),
        mk("soplex", 0.90, 32.0, 7.5, 5.0, 2.8, 10.0, 4.0),
        mk("hmmer", 0.65, 12.0, 1.8, 0.5, 2.0, 6.0, 2.0),
        mk("libquantum", 0.80, 40.0, 12.0, 8.0, 3.5, 3.0, 10.0),
        mk("lbm", 0.85, 36.0, 8.0, 7.0, 3.2, 2.0, 2.0),
        mk("omnetpp", 0.95, 34.0, 8.0, 5.0, 2.5, 16.0, 4.0),
        mk("xalancbmk", 0.90, 36.0, 9.0, 4.5, 2.4, 18.0, 10.0),
        mk("x264_17", 0.78, 26.0, 5.5, 2.4, 2.4, 15.0, 3.0),
        mk("deepsjeng", 0.72, 16.0, 2.5, 0.8, 2.0, 17.0, 2.5),
        mk("xz", 0.80, 24.0, 5.0, 2.2, 2.2, 12.0, 3.0),
    };
}

/*
 * CloudSuite-style scale-out services: deep software stacks (high core
 * CPI from instruction-supply stalls), large shared working sets (high
 * interconnect and DRAM rates), and lock-based synchronization.
 */
std::vector<Workload>
cloudSuite()
{
    auto mk = [](const char *name, double cpi, double l2, double l3,
                 double coh, double dram, double mlp, double sync,
                 double br) {
        Workload w;
        w.name = name;
        w.cpiCore = cpi;
        w.l2Apki = l2;
        w.l3Apki = l3;
        w.cohPki = coh;
        w.dramApki = dram;
        w.mlp = mlp;
        w.syncPki = sync;
        w.branchMpki = br;
        return w;
    };
    //        name             cpi   l2    l3    coh  dram  mlp  sync br
    return {
        mk("data-serving", 1.10, 48.0, 26.0, 40.0, 6.0, 2.2, 0.20, 20.0),
        mk("web-search", 1.00, 40.0, 16.0, 30.0, 4.5, 2.2, 0.10, 22.0),
        mk("media-streaming", 0.85, 36.0, 18.0, 22.0, 5.0, 2.6, 0.08,
           12.0),
        mk("data-analytics", 0.95, 44.0, 24.0, 36.0, 5.5, 2.4, 0.30,
           16.0),
        mk("web-serving", 1.05, 42.0, 15.0, 34.0, 4.0, 2.0, 0.25, 24.0),
        mk("graph-analytics", 1.00, 46.0, 30.0, 44.0, 6.5, 2.6, 0.35,
           14.0),
    };
}

const Workload &
findWorkload(const std::vector<Workload> &suite, const std::string &name)
{
    for (const auto &w : suite) {
        if (w.name == name)
            return w;
    }
    fatal("unknown workload: " + name);
}

std::vector<InjectionBand>
injectionBands()
{
    // Per-core L3-request injection rates measured by the paper's gem5
    // runs and real-machine profiling (Fig. 18), in requests per node
    // per 4 GHz cycle.
    return {
        {"PARSEC", 0.0008, 0.0045},
        {"SPEC2006", 0.004, 0.020},
        {"SPEC2017", 0.004, 0.024},
        {"CloudSuite", 0.008, 0.030},
    };
}

} // namespace cryo::sys
