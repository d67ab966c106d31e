/**
 * @file
 * Host-side memory requests.
 *
 * Following §IV-A, the host (an AI accelerator's DMA engine) delivers bulk
 * requests on the order of kilobytes to the memory controller. A
 * conventional MC decomposes each request into cache-line-sized column
 * operations; the RoMe MC maps each 4 KB-aligned piece onto one
 * RD_row/WR_row.
 */

#ifndef ROME_MC_REQUEST_H
#define ROME_MC_REQUEST_H

#include <cstdint>

#include "common/types.h"

namespace rome
{

/** Request direction. */
enum class ReqKind { Read, Write };

/** A bulk host request addressed to one channel's local address space. */
struct Request
{
    std::uint64_t id = 0;
    ReqKind kind = ReqKind::Read;
    /** Channel-local byte address. */
    std::uint64_t addr = 0;
    /** Bytes. */
    std::uint64_t size = 0;
    /** When the host handed the request to the MC. */
    Tick arrival = 0;
    /**
     * Ticks the request spent in transit upstream of the controller
     * (node-link queueing; sim/node.h). arrival is the post-link
     * delivery tick, so this is informational: it feeds the link
     * component of the telemetry latency breakdown and nothing else.
     */
    Tick linkDelay = 0;
};

/** A request's checkpointed fields (field lists: common/checkpoint.h). */
template <class Ar, class Req>
void
requestFields(Ar& ar, Req& r)
{
    ar(r.id, r.kind, r.addr, r.size, r.arrival, r.linkDelay);
}

/** Completion record produced by a memory controller. */
struct Completion
{
    std::uint64_t id = 0;
    Tick finished = 0;
    /**
     * The delivered data contains a detected-uncorrectable ECC error
     * (sim/fault.h): the request completed on time, but at least one of
     * its reads decoded as a DUE, so the payload is poisoned. Serving
     * layers surface this per request instead of only counting DUEs.
     */
    bool poisoned = false;

    // ---- latency breakdown (ns; zero unless telemetry counters are on) --
    /** Arrival to first command issued on the request's behalf. */
    double queueNs = 0.0;
    /** First issue to last data beat, minus retry backoff. */
    double serviceNs = 0.0;
    /** ECC retry backoff the request absorbed. */
    double retryNs = 0.0;
    /** Upstream node-link delay (before arrival; additive on top). */
    double linkNs = 0.0;
};

} // namespace rome

#endif // ROME_MC_REQUEST_H
