#include "arch/chip.hh"

namespace forms::arch {

void
EnginePool::program(int node_id, MappedLayer mapped,
                    const EngineConfig &cfg)
{
    auto slot = std::make_unique<Slot>();
    slot->nodeId = node_id;
    slot->mapped = std::move(mapped);
    slot->engine = std::make_unique<CrossbarEngine>(slot->mapped, cfg);
    slots_.push_back(std::move(slot));
}

CrossbarEngine *
EnginePool::engine(int node_id)
{
    for (auto &s : slots_)
        if (s->nodeId == node_id)
            return s->engine.get();
    return nullptr;
}

const MappedLayer *
EnginePool::mapped(int node_id) const
{
    for (const auto &s : slots_)
        if (s->nodeId == node_id)
            return &s->mapped;
    return nullptr;
}

int64_t
EnginePool::totalCrossbars() const
{
    int64_t n = 0;
    for (const auto &s : slots_)
        n += s->mapped.numCrossbars();
    return n;
}

} // namespace forms::arch
