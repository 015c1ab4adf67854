/**
 * @file
 * Keyed prepare cache: content hash of (matrix, operator config) ->
 * shared immutable prepared operator, with refcounted LRU eviction.
 *
 * Preparation -- blocking, placement, crossbar programming, cost
 * estimation -- dominates short solves on the accelerator (the
 * paper models it at four baseline-MVM equivalents per matrix, plus
 * programming). A service seeing the same system from many tenants
 * must pay it once: the cache keys each prepared operator by a
 * 128-bit content hash over the matrix structure AND values AND the
 * operator configuration, so two tenants submitting bit-identical
 * systems share one entry, while the same matrix under a different
 * device config (different blocking sizes, cluster arithmetic,
 * bank counts) hashes to a distinct entry.
 *
 * Keying contract: the key is a pure function of matrix + config
 * bytes -- never of thread count, addresses, or submission order --
 * so it is stable across MSC_THREADS settings and across runs.
 *
 * Entries are handed out as shared_ptr<PreparedOperator>; eviction
 * under the memory cap walks the LRU order but never frees an entry
 * with live external references (use_count > 1), so a solve in
 * flight can never have its operator deleted underneath it. The
 * accelerator backends allow one logical operation at a time
 * (Accelerator::opGuard); concurrent users of one shared entry
 * serialize on the entry's exec mutex.
 */

#ifndef MSC_SERVICE_PREPARE_CACHE_HH
#define MSC_SERVICE_PREPARE_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "accel/accel.hh"
#include "blocking/blocking.hh"
#include "cluster/cluster.hh"
#include "solver/solver.hh"
#include "sparse/csr.hh"
#include "util/hash128.hh"

namespace msc {

class MappedArtifact;

/** Which arithmetic backend a prepared operator runs on. */
enum class ServiceBackend
{
    Csr,             //!< exact CSR reference arithmetic
    Accel,           //!< functional accelerator (fast model)
    ClusterBitExact, //!< cluster arithmetic: the hardware's exact
                     //!< values; per-column slice-level stats only
                     //!< under StatsFidelity::Full
};

/** Placement/device configuration half of the cache key. */
struct OperatorConfig
{
    ServiceBackend backend = ServiceBackend::Csr;
    /** Accel: full accelerator configuration. */
    AcceleratorConfig accel;
    /** ClusterBitExact: blocking + cluster template. */
    BlockingConfig blocking;
    ClusterConfig cluster;
};

/** 128-bit content-hash cache key. */
struct CacheKey
{
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    bool
    operator==(const CacheKey &o) const
    {
        return hi == o.hi && lo == o.lo;
    }
};

struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey &k) const
    {
        return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
    }
};

/**
 * Content hash of (matrix, config): dimensions, row pointers,
 * column indices, value bit patterns, then every config field that
 * changes the prepared state. The matrix half is csrContentKey
 * (sparse/binio.hh) -- the same 128-bit digest packed artifacts
 * store -- so operatorKey(matrix, cfg) ==
 * operatorKeyFrom(csrContentKey(matrix), cfg) always holds, and an
 * artifact resolves to a cache key without re-hashing the matrix
 * bytes.
 */
CacheKey operatorKey(const Csr &matrix, const OperatorConfig &cfg);

/** Continue the key from a precomputed matrix content digest (the
 *  artifact warm path: the O(nnz) matrix hash is skipped). */
CacheKey operatorKeyFrom(Digest128 matrixKey,
                         const OperatorConfig &cfg);

/**
 * One immutable prepared entry: an owned copy of the matrix, the
 * backend state (accelerator / cluster operator), and the
 * LinearOperator view the solvers run against. Immutable after
 * construction except for the operator's internal scratch, which is
 * why opMutex() serializes appliers.
 */
class PreparedOperator
{
  public:
    PreparedOperator(const Csr &matrix, const OperatorConfig &config,
                     CacheKey key);

    /**
     * Build from a mapped artifact: the matrix is a zero-copy view
     * over the mapping (held alive by this entry), and a stored
     * blocking plan whose key matches the backend's configuration
     * skips planBlocks entirely (telemetry `binio.plan_reuse`).
     */
    PreparedOperator(std::shared_ptr<const MappedArtifact> artifact,
                     const OperatorConfig &config, CacheKey key);

    const Csr &matrix() const { return mat; }
    const OperatorConfig &config() const { return cfg; }
    CacheKey key() const { return id; }

    /** The solver-facing operator (valid for this entry's life). */
    LinearOperator &op() { return *oper; }

    /** Serializes concurrent solves over this shared entry: the
     *  accelerator backends support one logical op at a time. */
    std::mutex &opMutex() { return mu; }

    /** Rough resident-bytes estimate used by the eviction cap. */
    std::size_t bytes() const { return byteEstimate; }

  private:
    /** Shared ctor body; @p artifactPlan enables plan reuse. */
    void build();

    Csr mat;
    OperatorConfig cfg;
    CacheKey id;
    std::size_t byteEstimate = 0;
    /** On its own cache line: every solve locks it, and where the
     *  entry's size left it sharing a line with a neighbouring
     *  allocation, small-operator service throughput dropped ~10%. */
    alignas(64) std::mutex mu;
    /** Mapping backing a zero-copy `mat` (artifact ctor only). */
    std::shared_ptr<const MappedArtifact> art;
    // Backend state; exactly one is populated per backend kind.
    std::unique_ptr<Accelerator> accel;
    std::unique_ptr<LinearOperator> oper;
};

/**
 * The keyed cache. acquire() is thread-safe; a miss prepares the
 * entry outside the cache lock. Builds are deduplicated per (key,
 * replica): concurrent misses on one pair wait for the single build
 * in flight, while misses on distinct pairs build concurrently.
 */
class PrepareCache
{
  public:
    explicit PrepareCache(std::size_t memoryCapBytes = 256ull << 20)
        : capBytes(memoryCapBytes)
    {}

    /**
     * Look up (or build) the entry for (matrix, cfg). @p hit, when
     * non-null, reports whether the entry existed. The returned
     * shared_ptr keeps the entry alive regardless of eviction.
     *
     * @p replica selects an independent prepared instance of the
     * same key (per-dispatch-shard replicas): each replica owns its
     * own backend state and opMutex, so shards solving the same
     * operator concurrently do not serialize on one entry's exec
     * mutex. Replica 0 is the classic single-pipeline behavior; a
     * given (key, replica) pair builds at most once, and a hit is
     * reported only when that exact replica already exists.
     */
    std::shared_ptr<PreparedOperator>
    acquire(const Csr &matrix, const OperatorConfig &cfg,
            bool *hit = nullptr, unsigned replica = 0);

    /**
     * Artifact-keyed lookup: the key continues from the artifact's
     * stored matrix digest (no O(nnz) hash), and a miss builds the
     * entry from the mapping -- zero-copy matrix view, and the
     * stored placement plan when its blocking key matches @p cfg.
     * Keys are interchangeable with the parse path: the same system
     * submitted as text and as artifact share one entry.
     */
    std::shared_ptr<PreparedOperator>
    acquire(const std::shared_ptr<const MappedArtifact> &artifact,
            const OperatorConfig &cfg, bool *hit = nullptr,
            unsigned replica = 0);

    /**
     * The lookup / build-once / insert machinery behind both
     * acquires, for callers that construct the entry themselves.
     * @p build runs outside the cache lock, at most once at a time
     * per (key, replica); other misses on that pair wait for it and
     * then count as hits. If @p build throws, the exception reaches
     * its caller and a waiter retries the build.
     */
    std::shared_ptr<PreparedOperator> acquireKeyed(
        CacheKey key, unsigned replica, bool *hit,
        const std::function<
            std::shared_ptr<PreparedOperator>(CacheKey)> &build);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0; //!< distinct keys (not replicas)
        std::size_t bytes = 0; //!< resident estimate, all replicas
    };

    Stats stats() const;

    /** Drop every entry without live external references. */
    void clear();

  private:
    void evictOverCap(); //!< callers hold mu

    mutable std::mutex mu;
    /** (key, replica) pairs whose build is in flight; an entry is
     *  erased when its build lands or throws. Guarded by mu. */
    std::vector<std::pair<CacheKey, unsigned>> building;
    /** Signalled (under mu) whenever an in-flight build ends. */
    std::condition_variable buildDone;
    std::size_t capBytes;
    struct Entry
    {
        /** Per-shard prepared instances, indexed by replica; slots
         *  build lazily (null until first acquired). One LRU slot
         *  and one eviction decision cover the whole key. */
        std::vector<std::shared_ptr<PreparedOperator>> replicas;
        /** Position in lruOrder (most recent at front). */
        std::list<CacheKey>::iterator lruPos;

        std::size_t
        bytes() const
        {
            std::size_t b = 0;
            for (const auto &r : replicas)
                if (r)
                    b += r->bytes();
            return b;
        }

        bool
        referenced() const
        {
            for (const auto &r : replicas)
                if (r && r.use_count() > 1)
                    return true;
            return false;
        }
    };
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map;
    std::list<CacheKey> lruOrder;
    Stats counters;
};

} // namespace msc

#endif // MSC_SERVICE_PREPARE_CACHE_HH
