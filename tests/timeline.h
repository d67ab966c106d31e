/**
 * @file
 * Timeline comparison for the scheduler parity tests: a production
 * controller and its test-side oracle, both with a command-tracing
 * TelemetrySink attached, must record the same events.
 */

#ifndef ROME_TESTS_TIMELINE_H
#define ROME_TESTS_TIMELINE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "sim/telemetry.h"

namespace rome
{

/**
 * Equal timelines: every device command has the same kind, bank, issue
 * tick and span, and every retry, spare and DUE the same tick and track.
 */
inline ::testing::AssertionResult
sameTimeline(const std::vector<TelemetrySink::Event>& production,
             const std::vector<TelemetrySink::Event>& oracle)
{
    const auto& a = production;
    const auto& b = oracle;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
        if (std::strcmp(a[i].name, b[i].name) != 0 ||
            a[i].track != b[i].track || a[i].start != b[i].start ||
            a[i].dur != b[i].dur) {
            return ::testing::AssertionFailure()
                   << "event " << i << " differs: production " << a[i].name
                   << " on track " << a[i].track << " at " << a[i].start
                   << "+" << a[i].dur << ", oracle " << b[i].name
                   << " on track " << b[i].track << " at " << b[i].start
                   << "+" << b[i].dur;
        }
    }
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure()
               << "timelines of " << a.size() << " and " << b.size()
               << " events";
    }
    if (a.empty())
        return ::testing::AssertionFailure() << "empty timelines";
    return ::testing::AssertionSuccess();
}

} // namespace rome

#endif // ROME_TESTS_TIMELINE_H
