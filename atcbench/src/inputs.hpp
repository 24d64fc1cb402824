/**
 * @file
 * Seeded request streams for the serve phase: Zipf-skewed offsets over
 * the regions of a trace, with the hot set named in advance so every
 * request can be classed hot or cold at the client.
 *
 * Everything is a pure function of the seed; the library is not used.
 */

#ifndef ATCBENCH_INPUTS_HPP_
#define ATCBENCH_INPUTS_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace atcbench {

/** SplitMix64 step: the benchmark's only random source. */
uint64_t splitmix(uint64_t &state);

/** @return an independent seed for stream @p salt of run seed @p seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t salt);

/** Shape of one connection's request stream. */
struct RequestPlan
{
    uint64_t records = 0;   ///< trace length
    uint64_t region = 0;    ///< records per region (one transform buffer)
    uint32_t count = 0;     ///< records per request
    double zipf_s = 1.0;    ///< skew across regions
    size_t hot_regions = 0; ///< top ranks that form the hot set
};

/** One SEEK (read @c count records at @c begin) or READ_RANGE. */
struct Request
{
    bool seek = false;
    uint64_t begin = 0;
    uint32_t count = 0;
    bool hot = false; ///< the region is in the hot set
};

/**
 * @return @p n requests for connection @p conn. Regions are ranked by
 * a seeded permutation, so the hot regions move with the seed; the
 * offset inside a region and the opcode are drawn uniformly. Only
 * whole regions are requested (a short tail is never touched), and a
 * request never crosses a region boundary.
 */
std::vector<Request> makeRequests(const RequestPlan &plan, uint64_t seed,
                                  size_t conn, size_t n);

/**
 * @return one READ_RANGE of @c count records at the start of every
 * whole region r with r % @p parts == @p part: the untimed touch that
 * warms the server before the timed requests. The @p parts lists
 * together cover every region exactly once.
 */
std::vector<Request> warmupRequests(const RequestPlan &plan, size_t part,
                                    size_t parts);

} // namespace atcbench

#endif // ATCBENCH_INPUTS_HPP_
