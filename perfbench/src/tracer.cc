#include "tracer.hh"

#include "common/logging.hh"

namespace perfbench {

using namespace dbsim;

void
Tracer::enter(Layer layer)
{
    panic_if(depth == kMaxDepth, "span stack overflow");
    stack[depth++] = Frame{layer, nowNs(), 0};
}

void
Tracer::leave()
{
    const std::uint64_t end = nowNs();
    Frame &f = stack[--depth];
    const std::uint64_t span = end - f.startNs;
    LayerTotals &lt = totals[static_cast<std::size_t>(f.layer)];
    ++lt.calls;
    lt.selfNs += span - f.childNs;
    if (depth > 0) {
        stack[depth - 1].childNs += span;
    }
}

void
TimedLlcPort::read(Addr block_addr, std::uint32_t core, Cycle when,
                   Callback cb)
{
    Tracer::Span s(t, Layer::LlcRead);
    port.read(block_addr, core, when,
              [tr = &t, cb = std::move(cb)](Cycle done) {
                  Tracer::Span w(*tr, Layer::CoreWake);
                  cb(done);
              });
}

void
TimedLlcPort::writeback(Addr block_addr, std::uint32_t core, Cycle when)
{
    Tracer::Span s(t, Layer::LlcWriteback);
    port.writeback(block_addr, core, when);
}

bool
TimedLookupPolicy::tryBypass(Addr block_addr, std::uint32_t core,
                             Cycle when, Callback &cb)
{
    Tracer::Span s(t, Layer::Bypass);
    return pol->tryBypass(block_addr, core, when, cb);
}

void
TimedWritebackPolicy::afterDirtyEviction(Addr block_addr, Cycle when)
{
    Tracer::Span s(t, Layer::AfterEviction);
    pol->afterDirtyEviction(block_addr, when);
}

void
TimedDirtyStore::writebackIn(Addr block_addr, std::uint32_t core,
                             Cycle when)
{
    Tracer::Span s(t, Layer::DirtyStore);
    store->writebackIn(block_addr, core, when);
}

void
TimedDirtyStore::functionalWritebackIn(Addr block_addr, std::uint32_t core)
{
    Tracer::Span s(t, Layer::DirtyStore);
    store->functionalWritebackIn(block_addr, core);
}

bool
TimedDirtyStore::isDirty(Addr block_addr) const
{
    Tracer::Span s(t, Layer::DirtyStore);
    return store->isDirty(block_addr);
}

bool
TimedDirtyStore::probeDirty(Addr block_addr) const
{
    Tracer::Span s(t, Layer::DirtyStore);
    return store->probeDirty(block_addr);
}

void
TimedDirtyStore::clean(Addr block_addr)
{
    Tracer::Span s(t, Layer::DirtyStore);
    store->clean(block_addr);
}

bool
TimedDirtyStore::victimDirty(Addr block_addr, bool tag_dirty)
{
    Tracer::Span s(t, Layer::DirtyStore);
    return store->victimDirty(block_addr, tag_dirty);
}

void
TimedDirtyStore::onVictimWrittenBack(Addr block_addr)
{
    Tracer::Span s(t, Layer::DirtyStore);
    store->onVictimWrittenBack(block_addr);
}

bool
TimedDirtyStore::functionalVictimDirty(Addr block_addr, bool tag_dirty)
{
    Tracer::Span s(t, Layer::DirtyStore);
    return store->functionalVictimDirty(block_addr, tag_dirty);
}

void
TimedDirtyStore::functionalVictimWrittenBack(Addr block_addr)
{
    Tracer::Span s(t, Layer::DirtyStore);
    store->functionalVictimWrittenBack(block_addr);
}

std::uint64_t
TimedDirtyStore::dirtyInVictimRow(Addr block_addr) const
{
    Tracer::Span s(t, Layer::DirtyStore);
    return store->dirtyInVictimRow(block_addr);
}

void
TimedBackingPort::read(Addr block_addr, Cycle when, ReadCallback cb)
{
    Tracer::Span s(t, Layer::DramRead);
    port.read(block_addr, when,
              [tr = &t, cb = std::move(cb)](Cycle done) {
                  Tracer::Span c(*tr, Layer::DramCompletion);
                  cb(done);
              });
}

void
TimedBackingPort::write(Addr block_addr, Cycle when)
{
    Tracer::Span s(t, Layer::DramWrite);
    port.write(block_addr, when);
}

TracedLlc::TracedLlc(const LlcConfig &config, BackingPort &backing_port,
                     ShardContext context,
                     std::unique_ptr<DirtyStore> dirty_store,
                     std::unique_ptr<WritebackPolicy> writeback_policy,
                     std::unique_ptr<LookupPolicy> lookup_policy,
                     Tracer &tracer)
    : Llc(config, backing_port, context, std::move(dirty_store),
          std::move(writeback_policy), std::move(lookup_policy))
{
    dirtyStorePtr = std::make_unique<TimedDirtyStore>(
        std::move(dirtyStorePtr), tracer);
}

} // namespace perfbench
