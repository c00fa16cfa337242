/**
 * @file
 * Deterministic synthetic ChampSim-trace generator for the trace-ingest
 * smoke leg and local experimentation:
 *
 *   gen_trace OUT.champsim[.gz|.xz] [--records N] [--seed S]
 *             [--write-frac PCT] [--gap-max N] [--text]
 *
 * The stream mixes a sequential walker, a strided writer, and a random
 * reader over a few hundred MB of address space — enough locality for
 * caches to warm, enough writes for the dirty machinery to matter.
 * Identical arguments produce identical bytes, so generated traces can
 * be content-hashed, cached, and diffed. With --text the same access
 * stream is written in the native "<gap> <R|W> <hex-addr>" format
 * (workload/file_trace.hh) instead of ChampSim records.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "workload/champsim_trace.hh"
#include "workload/file_trace.hh"
#include "workload/trace_decode.hh"

using namespace dbsim;

namespace {

/** xorshift64*: tiny, seedable, stable across platforms. */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s OUT.champsim[.gz|.xz] [--records N] "
                 "[--seed S]\n"
                 "          [--write-frac PCT] [--gap-max N] [--text]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out;
    std::uint64_t records = 200'000;
    std::uint64_t seed = 1;
    std::uint64_t write_frac = 30;  // percent of memory records
    std::uint64_t gap_max = 8;      // non-memory records between accesses
    bool text = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s requires a value", arg);
            return argv[++i];
        };
        if (std::strcmp(arg, "--records") == 0) {
            records = parseUintArg(arg, value());
        } else if (std::strcmp(arg, "--seed") == 0) {
            seed = parseUintArg(arg, value());
        } else if (std::strcmp(arg, "--write-frac") == 0) {
            write_frac = parseUintArg(arg, value());
            fatal_if(write_frac > 100, "--write-frac is a percentage");
        } else if (std::strcmp(arg, "--gap-max") == 0) {
            gap_max = parseUintArg(arg, value());
        } else if (std::strcmp(arg, "--text") == 0) {
            text = true;
        } else if (std::strncmp(arg, "--", 2) == 0) {
            return usage(argv[0]);
        } else if (out.empty()) {
            out = arg;
        } else {
            return usage(argv[0]);
        }
    }
    if (out.empty()) {
        return usage(argv[0]);
    }
    fatal_if(records == 0, "--records must be positive");

    std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 1;

    // Three interleaved access generators over a 256MB footprint.
    std::uint64_t seq = 0x10000000ull;
    std::uint64_t stride = 0x20000000ull;
    const std::uint64_t mask = (256ull << 20) - 1;

    std::vector<ChampSimRecord> recs;
    std::vector<TraceOp> ops;
    std::uint64_t ip = 0x400000;
    std::uint32_t gap_accum = 0;

    for (std::uint64_t n = 0; n < records; ++n) {
        std::uint64_t r = nextRand(rng);
        ip += 4 + (r & 0xc);

        // Some records are non-memory instructions (they become gap).
        if (gap_max > 0 && (r >> 8) % (gap_max + 1) == 0) {
            if (text) {
                ++gap_accum;
            } else {
                ChampSimRecord rec{};
                rec.ip = ip;
                rec.isBranch = (r >> 16) & 1;
                rec.branchTaken = rec.isBranch ? ((r >> 17) & 1) : 0;
                recs.push_back(rec);
            }
            continue;
        }

        std::uint64_t addr;
        switch ((r >> 24) % 3) {
          case 0:  // sequential walker
            seq += 64;
            addr = 0x10000000ull + (seq & mask);
            break;
          case 1:  // strided writer's favorite region
            stride += 4096;
            addr = 0x50000000ull + (stride & mask);
            break;
          default:  // random reader
            addr = 0x90000000ull + ((r >> 32) * 64 & mask);
            break;
        }
        bool is_write = (r >> 5) % 100 < write_frac;

        if (text) {
            ops.push_back(TraceOp{gap_accum, is_write, false, addr});
            gap_accum = 0;
        } else {
            ChampSimRecord rec{};
            rec.ip = ip;
            rec.destRegs[0] = static_cast<std::uint8_t>(r % 32);
            rec.srcRegs[0] = static_cast<std::uint8_t>((r >> 40) % 32);
            if (is_write) {
                rec.destMem[0] = addr;
            } else {
                rec.srcMem[0] = addr;
            }
            recs.push_back(rec);
        }
    }

    if (text) {
        fatal_if(ops.empty(),
                 "generated no memory accesses; raise --records");
        FileTrace::write(out, ops);
    } else {
        TraceCodec codec = TraceCodec::Raw;
        auto ends = [&](const char *suffix) {
            std::size_t n = std::strlen(suffix);
            return out.size() >= n &&
                   out.compare(out.size() - n, n, suffix) == 0;
        };
        if (ends(".gz")) {
            codec = TraceCodec::Gzip;
        } else if (ends(".xz")) {
            codec = TraceCodec::Xz;
        }
        fatal_if(!traceCodecAvailable(codec),
                 "%s support is not compiled into this build",
                 traceCodecName(codec));
        ChampSimTrace::write(out, recs, codec);
    }
    std::printf("%s: %llu records (%s)\n", out.c_str(),
                static_cast<unsigned long long>(records),
                text ? "text" : "champsim");
    return 0;
}
