#include "batch_terms.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"

namespace amped {
namespace core {

namespace {

/** The bit pattern of a double (exact-match memo keys). */
std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double is 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

} // namespace

std::size_t
SweepTermCache::TripleKeyHash::operator()(const TripleKey &k) const
{
    Fnv1a hasher;
    hasher.bytes(&k.a, sizeof(k.a));
    hasher.bytes(&k.b, sizeof(k.b));
    hasher.bytes(&k.c, sizeof(k.c));
    return static_cast<std::size_t>(hasher.digest());
}

SweepTermCache::SweepTermCache(const AmpedModel &model)
    : model_(model), rates_(hw::computeRateSnapshot(model.accelerator()))
{
    const auto &counter = model_.opCounter();
    const std::int64_t layers = counter.config().numLayers;
    // Layer classes in first-seen layer order, so class 0 is layer 0's.
    layerClass_.reserve(static_cast<std::size_t>(layers));
    int class_index[2] = {-1, -1}; // Indexed by isMoeLayer.
    for (std::int64_t l = 0; l < layers; ++l) {
        int &c = class_index[counter.config().isMoeLayer(l) ? 1 : 0];
        if (c < 0) {
            c = static_cast<int>(classLayer_.size());
            classLayer_.push_back(l);
            weights2_.push_back(2.0 * counter.weightsPerLayer(l));
        }
        layerClass_.push_back(static_cast<std::uint8_t>(c));
    }
    moeActive_ = model_.options().enableMoeComm &&
                 counter.config().moe.numExperts > 0;
    if (!moeActive_) {
        // Sentinel id 0: every MoE lookup resolves to an exact +0.0,
        // matching the scalar sum of per-layer zeros.
        Entry zero;
        zero.outcome = Outcome::ok;
        moe_.push_back(std::move(zero));
    }
}

std::size_t
SweepTermCache::registerForwardCompute(double batch, double eff)
{
    const std::uint64_t batch_key = doubleBits(batch);
    std::size_t table = 0;
    const auto table_it = opsTableIds_.find(batch_key);
    if (table_it != opsTableIds_.end()) {
        table = table_it->second;
    } else {
        table = opsTables_.size();
        OpsTable ops;
        ops.batch = batch;
        opsTables_.push_back(std::move(ops));
        opsTableIds_.emplace(batch_key, table);
    }

    const std::size_t id = forward_.size();
    Entry entry;
    entry.keyA = batch;
    entry.keyB = eff;
    forward_.push_back(std::move(entry));
    forwardOpsTable_.push_back(table);
    return id;
}

std::size_t
SweepTermCache::registerWeightUpdate(double eff)
{
    const std::size_t id = update_.size();
    Entry entry;
    entry.keyA = eff;
    update_.push_back(std::move(entry));
    return id;
}

std::size_t
SweepTermCache::registerMoeForward(double replica_batch)
{
    if (!moeActive_)
        return 0; // The +0.0 sentinel seeded by the constructor.
    const std::uint64_t key = doubleBits(replica_batch);
    const auto it = moeIds_.find(key);
    if (it != moeIds_.end())
        return it->second;
    const std::size_t id = moe_.size();
    Entry entry;
    entry.keyA = replica_batch;
    moe_.push_back(std::move(entry));
    moeIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerGrad(const mapping::ParallelismConfig &mapping)
{
    // The per-layer gradient all-reduce depends on the mapping only
    // through N_TP * N_PP (gradient sharding) and the two DP tiers.
    const TripleKey key{mapping.tp() * mapping.pp(), mapping.dpIntra,
                        mapping.dpInter};
    const auto it = gradIds_.find(key);
    if (it != gradIds_.end())
        return it->second;
    const std::size_t id = grad_.size();
    grad_.push_back(Entry{});
    gradMappings_.push_back(mapping);
    gradIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerModelFlops(double batch)
{
    const std::uint64_t key = doubleBits(batch);
    const auto it = flopsIds_.find(key);
    if (it != flopsIds_.end())
        return it->second;
    const std::size_t id = flops_.size();
    Entry entry;
    entry.keyA = batch;
    flops_.push_back(std::move(entry));
    flopsIds_.emplace(key, id);
    return id;
}

void
SweepTermCache::primeOpsTable(OpsTable &table) const
{
    try {
        const auto &counter = model_.opCounter();
        table.terms.clear();
        table.classEnd.clear();
        for (const std::int64_t l : classLayer_) {
            for (const auto &op : counter.layerOps(l, table.batch)) {
                OpTerm term;
                term.macs2 = 2.0 * op.macs;
                term.nonlinear = op.nonlinear;
                table.terms.push_back(term);
            }
            table.classEnd.push_back(
                static_cast<std::uint32_t>(table.terms.size()));
        }
        table.outcome = Outcome::ok;
    } catch (const UserError &e) {
        table.outcome = Outcome::userError;
        table.message = e.what();
    } catch (const std::exception &e) {
        table.outcome = Outcome::error;
        table.message = e.what();
    }
}

void
SweepTermCache::primeForwardCompute(Entry &entry) const
{
    const std::size_t table_index =
        forwardOpsTable_[static_cast<std::size_t>(&entry -
                                                  forward_.data())];
    const OpsTable &table = opsTables_[table_index];
    if (table.outcome != Outcome::ok) {
        entry.outcome = table.outcome;
        entry.message = table.message;
        return;
    }
    try {
        // Mirrors core::layerForwardComputeTime summed over layers,
        // per-layer sub-accumulator included: identical operations in
        // identical order yield identical bits.
        const SecondsPerFlop c_mac =
            hw::cMac(model_.accelerator(), entry.keyB);
        const SecondsPerFlop c_non = rates_.cNonlin;
        std::array<Seconds, kMaxLayerClasses> layer_time{};
        std::size_t begin = 0;
        for (std::size_t c = 0; c < table.classEnd.size(); ++c) {
            Seconds time{0.0};
            for (std::size_t i = begin; i < table.classEnd[c]; ++i) {
                time += Flops{table.terms[i].macs2} * c_mac *
                        rates_.macFactor;
                time += Flops{table.terms[i].nonlinear} * c_non *
                        rates_.nonlinFactor;
            }
            layer_time[c] = time;
            begin = table.classEnd[c];
        }
        entry.value = sumOverLayers(layer_time).value();
        entry.outcome = Outcome::ok;
    } catch (const UserError &e) {
        entry.outcome = Outcome::userError;
        entry.message = e.what();
    } catch (const std::exception &e) {
        entry.outcome = Outcome::error;
        entry.message = e.what();
    }
}

void
SweepTermCache::primeWeightUpdate(Entry &entry) const
{
    try {
        // Mirrors core::layerWeightUpdateTime summed over layers.
        const SecondsPerFlop c_mac =
            hw::cMac(model_.accelerator(), entry.keyA);
        std::array<Seconds, kMaxLayerClasses> layer_update{};
        for (std::size_t c = 0; c < weights2_.size(); ++c)
            layer_update[c] = Flops{weights2_[c]} * c_mac * rates_.macFactor;
        entry.value = sumOverLayers(layer_update).value();
        entry.outcome = Outcome::ok;
    } catch (const UserError &e) {
        entry.outcome = Outcome::userError;
        entry.message = e.what();
    } catch (const std::exception &e) {
        entry.outcome = Outcome::error;
        entry.message = e.what();
    }
}

void
SweepTermCache::primeMoeForward(Entry &entry) const
{
    try {
        std::array<Seconds, kMaxLayerClasses> layer_moe{};
        for (std::size_t c = 0; c < classLayer_.size(); ++c)
            layer_moe[c] = model_.moeCommTime(classLayer_[c], entry.keyA);
        entry.value = sumOverLayers(layer_moe).value();
        entry.outcome = Outcome::ok;
    } catch (const UserError &e) {
        entry.outcome = Outcome::userError;
        entry.message = e.what();
    } catch (const std::exception &e) {
        entry.outcome = Outcome::error;
        entry.message = e.what();
    }
}

void
SweepTermCache::primeGrad(Entry &entry) const
{
    const std::size_t id =
        static_cast<std::size_t>(&entry - grad_.data());
    const mapping::ParallelismConfig &mapping = gradMappings_[id];
    try {
        // Mirrors the evaluate() gradient loop, accumulating raw
        // doubles exactly as Breakdown::commGrad* do.
        std::array<double, kMaxLayerClasses> layer_intra{};
        std::array<double, kMaxLayerClasses> layer_inter{};
        for (std::size_t c = 0; c < classLayer_.size(); ++c) {
            Seconds intra{0.0};
            Seconds inter{0.0};
            model_.gradCommTime(mapping, classLayer_[c], intra, inter);
            layer_intra[c] = intra.value();
            layer_inter[c] = inter.value();
        }
        entry.value = sumOverLayers(layer_intra);
        entry.value2 = sumOverLayers(layer_inter);
        entry.outcome = Outcome::ok;
    } catch (const UserError &e) {
        entry.outcome = Outcome::userError;
        entry.message = e.what();
    } catch (const std::exception &e) {
        entry.outcome = Outcome::error;
        entry.message = e.what();
    }
}

void
SweepTermCache::primeModelFlops(Entry &entry) const
{
    try {
        // Mirrors OpCounter::modelFlopsPerBatch, its check first and
        // the per-layer MAC sum replayed per class.
        const auto &counter = model_.opCounter();
        const double batch = entry.keyA;
        require(batch > 0.0, "batch size must be positive, got ", batch);
        std::array<double, kMaxLayerClasses> layer_macs{};
        for (std::size_t c = 0; c < classLayer_.size(); ++c)
            layer_macs[c] = counter.layerMacsForward(classLayer_[c], batch);
        double fwd_macs = sumOverLayers(layer_macs);
        if (counter.options().includeEmbeddingFlops)
            fwd_macs += counter.embeddingMacs(batch);
        const double multiplier =
            counter.options().activationRecompute ? 4.0 : 3.0;
        entry.value = 2.0 * fwd_macs * multiplier;
        entry.outcome = Outcome::ok;
    } catch (const UserError &e) {
        entry.outcome = Outcome::userError;
        entry.message = e.what();
    } catch (const std::exception &e) {
        entry.outcome = Outcome::error;
        entry.message = e.what();
    }
}

RunStatus
SweepTermCache::prime(unsigned max_workers, const CancelToken &token)
{
    const std::size_t workers =
        max_workers > 0 ? max_workers
                        : ThreadPool::defaultThreadCount();

    // Phase 1: per-batch op tables (forward entries read them).
    std::vector<std::size_t> pending_tables;
    for (std::size_t i = 0; i < opsTables_.size(); ++i)
        if (opsTables_[i].outcome == Outcome::pending)
            pending_tables.push_back(i);
    if (!pending_tables.empty()) {
        const RunStatus status = ThreadPool::shared().parallelFor(
            pending_tables.size(), /*chunk=*/1,
            [&](std::size_t i) {
                primeOpsTable(opsTables_[pending_tables[i]]);
            },
            token, workers);
        if (status != RunStatus::Completed)
            return status;
    }

    // Phase 2: every pending entry, each an independent pure
    // computation (deterministic at any worker count).
    enum Kind : unsigned char
    {
        kForward,
        kUpdate,
        kMoe,
        kGrad,
        kFlops
    };
    std::vector<std::pair<Kind, std::size_t>> work;
    const auto collect = [&work](Kind kind,
                                 const std::vector<Entry> &entries) {
        for (std::size_t i = 0; i < entries.size(); ++i)
            if (entries[i].outcome == Outcome::pending)
                work.emplace_back(kind, i);
    };
    collect(kForward, forward_);
    collect(kUpdate, update_);
    collect(kMoe, moe_);
    collect(kGrad, grad_);
    collect(kFlops, flops_);
    if (work.empty())
        return RunStatus::Completed;

    return ThreadPool::shared().parallelFor(
        work.size(), /*chunk=*/8,
        [&](std::size_t i) {
            const auto [kind, index] = work[i];
            switch (kind) {
            case kForward:
                primeForwardCompute(forward_[index]);
                break;
            case kUpdate:
                primeWeightUpdate(update_[index]);
                break;
            case kMoe:
                primeMoeForward(moe_[index]);
                break;
            case kGrad:
                primeGrad(grad_[index]);
                break;
            case kFlops:
                primeModelFlops(flops_[index]);
                break;
            }
        },
        token, workers);
}

} // namespace core
} // namespace amped
