#include "sampling/simpoint.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace darco::sampling
{

namespace
{

/** Random-projection dimensionality. */
constexpr u32 projDim = 16;
/** Lloyd iteration cap of each k-means run. */
constexpr u32 kmeansIters = 64;
/**
 * k selection: the smallest k whose BIC reaches
 * bicMin + bicTheta * (bicMax - bicMin) over the sweep (the SimPoint
 * "90% of best BIC" rule, rescaled so it is robust to negative
 * scores).
 */
constexpr double bicTheta = 0.9;

} // namespace

// ---------------------------------------------------------------------
// Profiling
// ---------------------------------------------------------------------

BbvProfile
harvestBbv(const tol::Profiler &prof)
{
    darco_assert(prof.bbvEnabled(),
                 "harvestBbv needs a BBV-enabled profiler "
                 "(set tol.bbv_interval)");
    BbvProfile p;
    p.interval = prof.bbvIntervalLen();
    p.totalInsts = prof.bbvTotalInsts();
    p.intervals = prof.bbvIntervals();
    tol::Profiler::BbvInterval part = prof.bbvPartial();
    if (part.insts > 0)
        p.intervals.push_back(std::move(part));
    return p;
}

// ---------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------

namespace
{

/** SplitMix64 finalizer: the projection-matrix hash. */
u64
mix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Deterministic ±1 projection entry for (seed, bb entry, dim). */
double
projSign(u64 seed, GAddr entry, u32 dim)
{
    u64 h = mix64(seed ^ (u64(entry) * 0x100000001b3ULL + dim));
    return (h & 1) ? 1.0 : -1.0;
}

double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double s = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        s += d * d;
    }
    return s;
}

} // namespace

std::vector<std::vector<double>>
projectBbvs(const BbvProfile &profile, u32 dim, u64 seed)
{
    std::vector<std::vector<double>> out;
    out.reserve(profile.intervals.size());
    for (const tol::Profiler::BbvInterval &iv : profile.intervals) {
        // dim projected-BBV coordinates + one software-layer
        // coordinate (below).
        std::vector<double> v(dim + 1, 0.0);
        double total = iv.insts ? double(iv.insts) : 1.0;
        for (const auto &[entry, n] : iv.counts) {
            double f = double(n) / total;
            for (u32 d = 0; d < dim; ++d)
                v[d] += f * projSign(seed, entry, d);
        }
        double norm = 0;
        for (double x : v)
            norm += x * x;
        if (norm > 0) {
            norm = std::sqrt(norm);
            for (double &x : v)
                x /= norm;
        }
        // The TOL-activity dimension, appended after normalization:
        // the guest-code BBV cannot distinguish an interval that
        // paid a translation/recreation burst from one running the
        // same code out of warm translations, but their timing
        // differs by an order of magnitude. overhead/(overhead+insts)
        // is bounded in [0,1): ~0 in steady state, large in bursts —
        // comparable in scale to the unit-norm BBV part, so bursts
        // form their own clusters and carry only their true weight.
        v[dim] = double(iv.overhead) /
                 double(iv.overhead + std::max<u64>(iv.insts, 1));
        out.push_back(std::move(v));
    }
    return out;
}

// ---------------------------------------------------------------------
// k-means
// ---------------------------------------------------------------------

KMeans
kmeans(const std::vector<std::vector<double>> &points, u32 k, Rng &rng,
       u32 iters)
{
    KMeans km;
    std::size_t n = points.size();
    darco_assert(k >= 1 && k <= n, "kmeans: need 1 <= k <= n");
    std::size_t dim = points[0].size();

    // k-means++ seeding off the deterministic Rng stream.
    std::vector<std::vector<double>> &c = km.centroids;
    c.push_back(points[rng.range(0, n - 1)]);
    std::vector<double> d2(n, 0.0);
    while (c.size() < k) {
        double total = 0;
        for (std::size_t i = 0; i < n; ++i) {
            double best = std::numeric_limits<double>::max();
            for (const auto &cc : c)
                best = std::min(best, dist2(points[i], cc));
            d2[i] = best;
            total += best;
        }
        std::size_t pick = 0;
        if (total > 0) {
            double r = rng.uniform() * total;
            for (std::size_t i = 0; i < n; ++i) {
                r -= d2[i];
                if (r < 0) {
                    pick = i;
                    break;
                }
                pick = i; // floating-point tail: last index wins
            }
        } else {
            // All remaining points coincide with a centroid: any
            // choice yields the same clustering; take index 0.
            pick = 0;
        }
        c.push_back(points[pick]);
    }

    km.assignment.assign(n, 0);
    for (u32 it = 0; it < iters; ++it) {
        // Assign: strict < keeps the lowest centroid index on ties.
        bool changed = false;
        for (std::size_t i = 0; i < n; ++i) {
            u32 best = 0;
            double bestD = dist2(points[i], c[0]);
            for (u32 j = 1; j < k; ++j) {
                double d = dist2(points[i], c[j]);
                if (d < bestD) {
                    bestD = d;
                    best = j;
                }
            }
            if (km.assignment[i] != best) {
                km.assignment[i] = best;
                changed = true;
            }
        }
        if (!changed && it > 0)
            break;

        // Update.
        std::vector<std::vector<double>> sum(
            k, std::vector<double>(dim, 0.0));
        std::vector<u64> cnt(k, 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++cnt[km.assignment[i]];
            for (std::size_t d = 0; d < dim; ++d)
                sum[km.assignment[i]][d] += points[i][d];
        }
        for (u32 j = 0; j < k; ++j) {
            if (cnt[j] == 0) {
                // Empty cluster: reseed to the point farthest from
                // its centroid (lowest index on ties).
                std::size_t far = 0;
                double farD = -1;
                for (std::size_t i = 0; i < n; ++i) {
                    double d =
                        dist2(points[i], c[km.assignment[i]]);
                    if (d > farD) {
                        farD = d;
                        far = i;
                    }
                }
                c[j] = points[far];
                continue;
            }
            for (std::size_t d = 0; d < dim; ++d)
                c[j][d] = sum[j][d] / double(cnt[j]);
        }
    }

    km.sse = 0;
    for (std::size_t i = 0; i < n; ++i)
        km.sse += dist2(points[i], c[km.assignment[i]]);
    return km;
}

double
bicScore(const KMeans &km,
         const std::vector<std::vector<double>> &points)
{
    double n = double(points.size());
    double d = double(points[0].size());
    double k = double(km.centroids.size());

    std::vector<u64> sizes(km.centroids.size(), 0);
    for (u32 a : km.assignment)
        ++sizes[a];

    // Spherical-Gaussian MLE variance (Pelleg & Moore, X-means).
    double var = n > k ? km.sse / (d * (n - k)) : 0.0;
    var = std::max(var, 1e-12);

    double ll = 0;
    for (u64 sz : sizes)
        if (sz > 0)
            ll += double(sz) * std::log(double(sz));
    ll -= n * std::log(n);
    ll -= n * d / 2.0 * std::log(2.0 * M_PI * var);
    ll -= d * (n - k) / 2.0;

    double params = k * (d + 1.0);
    return ll - params / 2.0 * std::log(n);
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

SimPointResult
pickSimPoints(const BbvProfile &profile, const SimPointOptions &opts)
{
    SimPointResult r;
    r.interval = profile.interval;
    r.totalInsts = profile.totalInsts;
    std::size_t n = profile.intervals.size();
    if (n == 0)
        return r;

    std::vector<std::vector<double>> pts =
        projectBbvs(profile, projDim, opts.seed);

    // k sweep. Each k gets its own seeded Rng stream so a sweep with
    // a different maxK still produces identical per-k clusterings.
    u32 kmax = u32(std::min<std::size_t>(opts.maxK, n));
    std::vector<KMeans> runs;
    double bicMin = 0, bicMax = 0;
    for (u32 k = 1; k <= kmax; ++k) {
        Rng rng(opts.seed ^ (u64(k) * 0x9e3779b97f4a7c15ULL));
        runs.push_back(kmeans(pts, k, rng, kmeansIters));
        double bic = bicScore(runs.back(), pts);
        r.bicSweep.emplace_back(k, bic);
        if (k == 1) {
            bicMin = bicMax = bic;
        } else {
            bicMin = std::min(bicMin, bic);
            bicMax = std::max(bicMax, bic);
        }
    }

    double threshold = bicMin + bicTheta * (bicMax - bicMin);
    u32 chosen = 1;
    for (const auto &[k, bic] : r.bicSweep) {
        if (bic >= threshold) {
            chosen = k;
            break;
        }
    }

    const KMeans &km = runs[chosen - 1];
    r.k = chosen;
    r.bic = r.bicSweep[chosen - 1].second;
    r.assignment = km.assignment;

    // Representatives: closest interval to each centroid; weights by
    // instruction share so the final (partial) interval contributes
    // its true fraction of the program.
    for (u32 j = 0; j < chosen; ++j) {
        std::size_t best = n; // sentinel: empty cluster
        double bestD = std::numeric_limits<double>::max();
        u64 clusterInsts = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (km.assignment[i] != j)
                continue;
            clusterInsts += profile.intervals[i].insts;
            double d = dist2(pts[i], km.centroids[j]);
            if (d < bestD) {
                bestD = d;
                best = i;
            }
        }
        if (best == n)
            continue;
        SimPoint p;
        p.intervalIndex = u32(best);
        p.cluster = j;
        p.weight = profile.totalInsts
                       ? double(clusterInsts) / double(profile.totalInsts)
                       : 0.0;
        p.startInst = u64(best) * profile.interval;
        r.points.push_back(p);
    }
    std::sort(r.points.begin(), r.points.end(),
              [](const SimPoint &a, const SimPoint &b) {
                  return a.intervalIndex < b.intervalIndex;
              });
    return r;
}

} // namespace darco::sampling
