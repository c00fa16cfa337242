/**
 * @file
 * Layer timing for the traced run. A Tracer keeps a stack of open spans;
 * each span charges its wall time to one layer, and a layer's self time
 * is its spans' time minus the time of the spans nested in them. Spans
 * are opened only by the decorators below, which wrap the simulator's
 * public interfaces, so no simulator code is instrumented. Per-span
 * records would run to millions per run, so the Tracer keeps per-layer
 * call counts and time totals instead.
 *
 * Every decorator forwards to the object it wraps with unchanged
 * arguments and adds no simulated time; a decorated machine therefore
 * simulates exactly what the undecorated one does (the benchmark
 * checks this on every traced run).
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "cpu/trace.hh"
#include "llc/llc.hh"
#include "llc/policies.hh"
#include "mem/backing_port.hh"

namespace perfbench {

/** The interfaces a span can be opened at. */
enum class Layer : std::uint8_t
{
    EqStep,         ///< EventQueue::step() called by the run loop
    TraceNext,      ///< TraceSource::next() of the raw trace source
    Warm,           ///< the SampledTrace functional-warming callback
    LlcRead,        ///< LlcPort::read
    LlcWriteback,   ///< LlcPort::writeback
    CoreWake,       ///< the wrapped LlcPort read-completion callback
    Bypass,         ///< LookupPolicy::tryBypass
    AfterEviction,  ///< WritebackPolicy::afterDirtyEviction
    DirtyStore,     ///< any DirtyStore method
    DramRead,       ///< BackingPort::read
    DramWrite,      ///< BackingPort::write
    DramCompletion, ///< the wrapped DRAM ReadCallback
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Per-layer totals. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t selfNs = 0;  ///< span time minus nested spans
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span for its lifetime. */
    class Span
    {
      public:
        Span(Tracer &tracer, Layer layer) : t(tracer) { t.enter(layer); }
        ~Span() { t.leave(); }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer &t;
    };

    const LayerTotals &
    operator[](Layer layer) const
    {
        return totals[static_cast<std::size_t>(layer)];
    }

  private:
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    void enter(Layer layer);
    void leave();

    struct Frame
    {
        Layer layer;
        std::uint64_t startNs;
        std::uint64_t childNs;
    };

    static constexpr std::size_t kMaxDepth = 256;
    std::array<Frame, kMaxDepth> stack{};
    std::size_t depth = 0;
    std::array<LayerTotals, kLayers> totals{};
};

/** TraceSource::next decorator (wraps the raw generator or decoder). */
class TimedTraceSource final : public dbsim::TraceSource
{
  public:
    TimedTraceSource(std::unique_ptr<dbsim::TraceSource> inner,
                     Tracer &tracer)
        : src(std::move(inner)), t(tracer)
    {
    }

    dbsim::TraceOp
    next() override
    {
        Tracer::Span s(t, Layer::TraceNext);
        return src->next();
    }

    std::uint64_t opsEmitted() const override { return src->opsEmitted(); }

  private:
    std::unique_ptr<dbsim::TraceSource> src;
    Tracer &t;
};

/**
 * LlcPort decorator between the private hierarchy and the LLC. Each
 * read's completion callback (private-cache fill and core wake-up) is
 * wrapped in a CoreWake span, so that work is not charged to whichever
 * layer completes the read.
 */
class TimedLlcPort final : public dbsim::LlcPort
{
  public:
    TimedLlcPort(dbsim::LlcPort &inner, Tracer &tracer)
        : port(inner), t(tracer)
    {
    }

    void read(dbsim::Addr block_addr, std::uint32_t core, dbsim::Cycle when,
              Callback cb) override;
    void writeback(dbsim::Addr block_addr, std::uint32_t core,
                   dbsim::Cycle when) override;

    /** Untimed: warming is already inside the Warm span. */
    void
    functionalAccess(dbsim::Addr block_addr, std::uint32_t core,
                     bool is_write) override
    {
        port.functionalAccess(block_addr, core, is_write);
    }

  private:
    dbsim::LlcPort &port;
    Tracer &t;
};

/** LookupPolicy decorator: times tryBypass. */
class TimedLookupPolicy final : public dbsim::LookupPolicy
{
  public:
    TimedLookupPolicy(std::unique_ptr<dbsim::LookupPolicy> inner,
                      Tracer &tracer)
        : pol(std::move(inner)), t(tracer)
    {
    }

    void
    bind(dbsim::Llc &owner) override
    {
        LookupPolicy::bind(owner);
        pol->bind(owner);
    }

    const char *name() const override { return pol->name(); }
    bool tryBypass(dbsim::Addr block_addr, std::uint32_t core,
                   dbsim::Cycle when, Callback &cb) override;

    void
    recordOutcome(dbsim::Addr block_addr, std::uint32_t core, bool hit,
                  dbsim::Cycle when) override
    {
        pol->recordOutcome(block_addr, core, hit, when);
    }

    void
    registerStats(dbsim::StatSet &set) override
    {
        pol->registerStats(set);
    }

  private:
    std::unique_ptr<dbsim::LookupPolicy> pol;
    Tracer &t;
};

/** WritebackPolicy decorator: times afterDirtyEviction. */
class TimedWritebackPolicy final : public dbsim::WritebackPolicy
{
  public:
    TimedWritebackPolicy(std::unique_ptr<dbsim::WritebackPolicy> inner,
                         Tracer &tracer)
        : pol(std::move(inner)), t(tracer)
    {
    }

    void
    bind(dbsim::Llc &owner) override
    {
        WritebackPolicy::bind(owner);
        pol->bind(owner);
    }

    const char *name() const override { return pol->name(); }
    void afterDirtyEviction(dbsim::Addr block_addr,
                            dbsim::Cycle when) override;
    void
    registerStats(dbsim::StatSet &set) override
    {
        pol->registerStats(set);
    }

  private:
    std::unique_ptr<dbsim::WritebackPolicy> pol;
    Tracer &t;
};

/**
 * DirtyStore decorator: times every data-path method. It wraps a store
 * that is already bound to its cache (see TracedLlc), so bind() is
 * never forwarded a second time.
 */
class TimedDirtyStore final : public dbsim::DirtyStore
{
  public:
    TimedDirtyStore(std::unique_ptr<dbsim::DirtyStore> bound_inner,
                    Tracer &tracer)
        : store(std::move(bound_inner)), t(tracer)
    {
    }

    void bind(dbsim::Llc &) override {}
    dbsim::DirtyStoreKind kind() const override { return store->kind(); }
    const char *name() const override { return store->name(); }
    void writebackIn(dbsim::Addr block_addr, std::uint32_t core,
                     dbsim::Cycle when) override;
    void functionalWritebackIn(dbsim::Addr block_addr,
                               std::uint32_t core) override;
    bool isDirty(dbsim::Addr block_addr) const override;
    bool probeDirty(dbsim::Addr block_addr) const override;
    void clean(dbsim::Addr block_addr) override;
    bool victimDirty(dbsim::Addr block_addr, bool tag_dirty) override;
    void onVictimWrittenBack(dbsim::Addr block_addr) override;
    bool functionalVictimDirty(dbsim::Addr block_addr,
                               bool tag_dirty) override;
    void functionalVictimWrittenBack(dbsim::Addr block_addr) override;
    std::uint64_t dirtyInVictimRow(dbsim::Addr block_addr) const override;
    dbsim::Dbi *dbiIndex() override { return store->dbiIndex(); }
    const dbsim::Dbi *dbiIndex() const override { return store->dbiIndex(); }
    void
    registerStats(dbsim::StatSet &set) override
    {
        store->registerStats(set);
    }
    void checkInvariants() const override { store->checkInvariants(); }

  private:
    std::unique_ptr<dbsim::DirtyStore> store;
    Tracer &t;
};

/**
 * BackingPort decorator below the LLC: times read/write enqueues and
 * wraps each read's completion callback in a DramCompletion span.
 */
class TimedBackingPort final : public dbsim::BackingPort
{
  public:
    TimedBackingPort(dbsim::BackingPort &inner, Tracer &tracer)
        : port(inner), t(tracer)
    {
    }

    void read(dbsim::Addr block_addr, dbsim::Cycle when,
              ReadCallback cb) override;
    void write(dbsim::Addr block_addr, dbsim::Cycle when) override;

    void
    functionalAccess(dbsim::Addr block_addr, bool is_write) override
    {
        port.functionalAccess(block_addr, is_write);
    }

    const dbsim::DramAddrMap &
    addrMap() const override
    {
        return port.addrMap();
    }
    std::size_t pendingWrites() const override { return port.pendingWrites(); }
    bool draining() const override { return port.draining(); }

  private:
    dbsim::BackingPort &port;
    Tracer &t;
};

/**
 * An Llc whose DirtyStore calls are timed. The policies are bound to
 * the real store by Llc's constructor first; only then is the store
 * wrapped. Policies that hold the concrete store (DBI aggressive
 * writeback keeps a DbiDirtyStore pointer, CLB keeps the Dbi) keep
 * calling it directly, so their index work counts as their own time.
 */
class TracedLlc final : public dbsim::Llc
{
  public:
    TracedLlc(const dbsim::LlcConfig &config,
              dbsim::BackingPort &backing_port, dbsim::ShardContext context,
              std::unique_ptr<dbsim::DirtyStore> dirty_store,
              std::unique_ptr<dbsim::WritebackPolicy> writeback_policy,
              std::unique_ptr<dbsim::LookupPolicy> lookup_policy,
              Tracer &tracer);
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
