#include "mqsp/serve/service.hpp"

#include "mqsp/dd/decision_diagram.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace mqsp::serve {
namespace {

/// Run one line and require an "OK ..." reply; returns the reply line.
std::string ok(VerificationService& service, const std::string& line) {
    const Response response = service.handleLine(line);
    EXPECT_EQ(response.line.rfind("OK ", 0), 0U)
        << "line '" << line << "' replied: " << response.line;
    return response.line;
}

/// Run one line and require an "ERR ..." reply carrying `fragment`.
std::string err(VerificationService& service, const std::string& line,
                const std::string& fragment) {
    const Response response = service.handleLine(line);
    EXPECT_EQ(response.line.rfind("ERR ", 0), 0U)
        << "line '" << line << "' replied: " << response.line;
    EXPECT_NE(response.line.find(fragment), std::string::npos)
        << "line '" << line << "' replied: " << response.line;
    EXPECT_FALSE(response.closeConnection);
    return response.line;
}

/// Value of `key=` in a reply line ("OK id=1 fidelity=1.000 ..."), or "".
std::string field(const std::string& reply, const std::string& key) {
    const std::string needle = " " + key + "=";
    const auto pos = reply.find(needle);
    if (pos == std::string::npos) {
        return "";
    }
    const auto start = pos + needle.size();
    const auto end = reply.find(' ', start);
    return reply.substr(start, end == std::string::npos ? std::string::npos : end - start);
}

std::uint64_t uintField(const std::string& reply, const std::string& key) {
    return std::stoull(field(reply, key));
}

TEST(ServeService, PrepVerifyLifecycle) {
    VerificationService service;
    const std::string prep = ok(service, "PREP:GHZ --dims 3,6,2");
    EXPECT_EQ(field(prep, "id"), "1");
    EXPECT_EQ(field(prep, "family"), "ghz");
    EXPECT_EQ(field(prep, "dims"), "[1x3,1x6,1x2]");
    EXPECT_EQ(field(prep, "amplitudes"), "36");
    EXPECT_EQ(field(prep, "approx_fidelity"), ""); // exact prep: no fidelity field

    const std::string verify = ok(service, "VERIFY");
    EXPECT_EQ(field(verify, "id"), "1");
    EXPECT_EQ(field(verify, "fidelity"), "1.000000000");
    EXPECT_EQ(field(verify, "repeats"), "1");

    const std::string byId = ok(service, "VERIFY --id 1 --repeat 3");
    EXPECT_EQ(field(byId, "fidelity"), "1.000000000");
    EXPECT_EQ(field(byId, "repeats"), "3");
}

TEST(ServeService, BatchDropAndStatsCounters) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");
    ok(service, "PREP:W --dims 3,6,2");
    ok(service, "PREP:UNIFORM --dims 2,2,2");

    const std::string batch = ok(service, "BATCH");
    EXPECT_EQ(field(batch, "items"), "3");
    EXPECT_EQ(field(batch, "failures"), "0");
    EXPECT_EQ(field(batch, "min_fidelity"), "1.000000000");

    const std::string drop = ok(service, "DROP --id 2");
    EXPECT_EQ(field(drop, "dropped"), "2");
    EXPECT_EQ(field(drop, "resident"), "2");
    err(service, "DROP --id 2", "no prepared target with id 2");
    err(service, "VERIFY --id 2", "no prepared target with id 2");

    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(field(stats, "resident"), "2");
    EXPECT_EQ(field(stats, "prepared"), "3");
    EXPECT_EQ(field(stats, "dropped"), "1");
    EXPECT_EQ(field(stats, "verified"), "3"); // the three batch items
    EXPECT_EQ(field(stats, "errors"), "2");
    EXPECT_NE(field(stats, "dd_nodes"), "");
    EXPECT_NE(field(stats, "unique_hit_rate"), "");
    EXPECT_NE(field(stats, "cache_hit_rate"), "");

    // Ids are never reused: the next prep gets 4, not 2.
    EXPECT_EQ(field(ok(service, "PREP:GHZ --dims 2,2"), "id"), "4");
}

TEST(ServeService, BatchLeavesTheSessionUntouched) {
    // BATCH items replay on worker sessions of their own, so the session
    // STATS? reports on — its pool and its table and cache counters — reads
    // the same before and after; only the verified count moves.
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");
    ok(service, "PREP:RANDOM --dims 3,4,2 --seed 7");
    ok(service, "GC");
    const std::string before = ok(service, "STATS?");
    EXPECT_EQ(field(ok(service, "BATCH"), "items"), "2");
    EXPECT_EQ(field(ok(service, "BATCH"), "items"), "2");
    const std::string after = ok(service, "STATS?");
    for (const char* key : {"dd_nodes", "cache_hits", "unique_hit_rate", "cache_hit_rate"}) {
        EXPECT_EQ(field(after, key), field(before, key)) << key;
    }
    EXPECT_EQ(uintField(after, "verified"), uintField(before, "verified") + 4);
}

TEST(ServeService, GcCompactsToLiveRootsAndVerificationSurvives) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");
    ok(service, "PREP:W --dims 3,6,2");
    ok(service, "PREP:DICKE --dims 3,6,2 --weight 3");
    ok(service, "DROP --id 3");
    ok(service, "DROP --id 2");
    const std::uint64_t before = service.session()->stats().poolNodes;

    const std::string gc = ok(service, "GC");
    EXPECT_EQ(uintField(gc, "nodes_before"), before);
    EXPECT_EQ(uintField(gc, "live_roots"), 1U);
    EXPECT_LT(uintField(gc, "nodes_after"), before);

    // dd_nodes after GC is exactly the live-root reachable set: the GHZ
    // diagram's internal nodes plus the terminal.
    const dd::DdSession reference;
    const std::uint64_t expected =
        DecisionDiagram::ghzState({3, 6, 2}, &reference).nodeCount(NodeCountMode::Internal) + 1;
    EXPECT_EQ(uintField(gc, "nodes_after"), expected);
    EXPECT_EQ(service.session()->stats().poolNodes, expected);

    // A second GC is a no-op, and the surviving target still verifies.
    const std::string again = ok(service, "GC");
    EXPECT_EQ(uintField(again, "nodes_before"), expected);
    EXPECT_EQ(uintField(again, "nodes_after"), expected);
    EXPECT_EQ(field(ok(service, "VERIFY --id 1"), "fidelity"), "1.000000000");
}

TEST(ServeService, RepeatVerificationsHitTheComputeCacheAcrossGc) {
    VerificationService service;
    // An approximated target: its fidelity is < 1, so repeat verification
    // cannot shortcut on root identity and must run the cached inner
    // product (exact targets short-circuit before the cache).
    const std::string prep = ok(service, "PREP:RANDOM --dims 2,2,2,2 --seed 7 --approx 0.9");
    const std::string fidelity = field(prep, "approx_fidelity");
    ASSERT_NE(fidelity, "");
    ASSERT_LT(std::stod(fidelity), 1.0);

    EXPECT_EQ(field(ok(service, "VERIFY --repeat 2"), "fidelity"), fidelity);
    const std::uint64_t hitsBefore = service.session()->stats().cache.hits;
    EXPECT_GT(hitsBefore, 0U);

    ok(service, "GC");
    EXPECT_EQ(field(ok(service, "VERIFY --repeat 2"), "fidelity"), fidelity);
    EXPECT_GT(service.session()->stats().cache.hits, hitsBefore);
}

TEST(ServeService, ApproxPrepDoesNotDependOnSessionHistory) {
    // On the session, the Dicke target's nodes took the bits an earlier
    // embedded-W target interned under bucket-equal keys, and its root-edge
    // mass landed one ulp inside the 0.1 budget: 13 ops at fidelity 0.9
    // after the embedded W, 14 ops at 1.0 in a fresh session.
    const std::string line = "PREP:DICKE --dims 9,5,6,3 --approx 0.9";
    VerificationService fresh;
    const std::string alone = ok(fresh, line);
    EXPECT_EQ(field(alone, "ops"), "14");
    EXPECT_EQ(field(alone, "approx_fidelity"), "1.000000000");

    VerificationService service;
    ok(service, "PREP:EMBW --dims 9,5,6,3");
    const std::string after = ok(service, line);
    EXPECT_EQ(field(after, "ops"), field(alone, "ops"));
    EXPECT_EQ(field(after, "approx_fidelity"), field(alone, "approx_fidelity"));
    // The resident target is still the exact state, on the session.
    EXPECT_EQ(field(ok(service, "VERIFY"), "fidelity"), "1.000000000");
}

TEST(ServeService, HundredCyclesKeepThePoolBounded) {
    VerificationService service;
    std::uint64_t steadyPool = 0;
    for (int cycle = 1; cycle <= 100; ++cycle) {
        const std::string family = (cycle % 2 == 0) ? "PREP:W" : "PREP:GHZ";
        const std::string prep = ok(service, family + " --dims 3,6,2");
        const std::uint64_t id = uintField(prep, "id");
        EXPECT_EQ(field(ok(service, "VERIFY --id " + std::to_string(id)), "fidelity"),
                  "1.000000000");
        if (cycle > 1) {
            ok(service, "DROP --id " + std::to_string(id));
        }
        // Interning dedups the repeated families: after both have been
        // built once, later cycles add no nodes at all.
        const std::uint64_t pool = service.session()->stats().poolNodes;
        if (cycle == 2) {
            steadyPool = pool;
        }
        if (cycle > 2) {
            EXPECT_EQ(pool, steadyPool) << "cycle " << cycle;
        }
    }

    // One resident target remains (id 1, GHZ): GC pins the pool to exactly
    // its reachable set.
    const std::string gc = ok(service, "GC");
    EXPECT_EQ(uintField(gc, "live_roots"), 1U);
    const dd::DdSession reference;
    EXPECT_EQ(uintField(gc, "nodes_after"),
              DecisionDiagram::ghzState({3, 6, 2}, &reference).nodeCount(NodeCountMode::Internal) + 1);
    EXPECT_EQ(field(ok(service, "VERIFY --id 1"), "fidelity"), "1.000000000");
}

TEST(ServeService, AdmissionLimitsRefuseWithoutKillingTheSession) {
    ServiceLimits limits;
    limits.maxAmplitudes = 100;
    VerificationService service(limits);
    ok(service, "PREP:GHZ --dims 3,6,2"); // 36 amplitudes: admitted
    err(service, "PREP:GHZ --dims 3,6,2,4", "admission: register has 144 amplitudes");
    // The refusal left the resident target serving.
    EXPECT_EQ(field(ok(service, "VERIFY"), "fidelity"), "1.000000000");
}

TEST(ServeService, NodeBudgetGatesNewPrepsButKeepsVerifying) {
    ServiceLimits limits;
    limits.maxSessionNodes = 4; // absurdly small: one GHZ prep exceeds it
    VerificationService service(limits);
    ok(service, "PREP:GHZ --dims 3,6,2"); // pool starts under budget: admitted
    err(service, "PREP:W --dims 3,6,2", "session node budget exhausted");
    EXPECT_EQ(field(ok(service, "VERIFY --id 1"), "fidelity"), "1.000000000");
    // GC cannot shrink below the live set here, but DROP + GC can.
    ok(service, "DROP --id 1");
    ok(service, "GC");
    ok(service, "PREP:UNIFORM --dims 2,2"); // pool back under budget: admitted
}

TEST(ServeService, VerifyRepeatIsBounded) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 2,2");
    err(service, "VERIFY --repeat 0", "--repeat needs a value in [1, 10000]");
    err(service, "VERIFY --repeat 10001", "--repeat needs a value in [1, 10000]");
}

TEST(ServeService, MalformedInputsAnswerErrAndKeepServing) {
    VerificationService service;
    err(service, "GARBAGE", "unknown command 'GARBAGE'");
    err(service, "PREP:GHZ", "PREP requires --dims");
    err(service, "PREP:GHZ --dims 2xq", "dimension in entry '2xq'");
    err(service, "PREP:GHZ --dims -3x2", "count in entry '-3x2'");
    err(service, "PREP:NOSUCH --dims 2,2", "unknown state family 'nosuch'");
    err(service, "PREP:DICKE --dims 2,2 --weight 99", "--weight needs a value in [0, 2]");
    err(service, "PREP:GHZ --dims 2,2 --weight 1", "--weight only applies to PREP:DICKE");
    err(service, "PREP:GHZ --dims 2,2 --approx 1.5", "--approx needs a fidelity in (0, 1]");
    err(service, "PREP:GHZ --dims 2,2 --wieght 1", "PREP does not take option --wieght");
    err(service, "VERIFY --id junk", "--id expects a non-negative integer");
    err(service, "VERIFY", "nothing prepared yet");
    err(service, "BATCH", "nothing prepared yet");
    err(service, "DROP", "DROP requires --id");
    err(service, "GC --id 1", "GC does not take option --id");

    // After all that abuse the service still serves normally.
    ok(service, "PREP:GHZ --dims 3,6,2");
    EXPECT_EQ(field(ok(service, "VERIFY"), "fidelity"), "1.000000000");
    EXPECT_EQ(field(ok(service, "STATS?"), "errors"), "14");
}

TEST(ServeService, OversizedLinesAreRefusedBeforeParsing) {
    ServiceLimits limits;
    limits.maxLineLength = 64;
    VerificationService service(limits);
    const std::string longLine = "PREP:GHZ --dims " + std::string(128, '2');
    err(service, longLine, "line too long");
    ok(service, "PREP:GHZ --dims 2,2"); // short lines still served
}

TEST(ServeService, BlankLinesAndCommentsProduceNoReply) {
    VerificationService service;
    EXPECT_EQ(service.handleLine("").line, "");
    EXPECT_EQ(service.handleLine("   \t ").line, "");
    EXPECT_EQ(service.handleLine("# a scripted session comment").line, "");
    // None of those counted as commands or errors.
    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(field(stats, "commands"), "1");
    EXPECT_EQ(field(stats, "errors"), "0");
}

TEST(ServeService, QuitClosesTheConnection) {
    VerificationService service;
    const Response response = service.handleLine("QUIT");
    EXPECT_EQ(response.line, "OK bye");
    EXPECT_TRUE(response.closeConnection);
    // HELP and LIMITS? answer one line and keep the connection.
    EXPECT_FALSE(service.handleLine("HELP").closeConnection);
    const std::string limitsReply = ok(service, "LIMITS?");
    EXPECT_EQ(field(limitsReply, "max_amplitudes"), "268435456");
    EXPECT_EQ(field(limitsReply, "max_nodes"), "1048576");
    EXPECT_EQ(field(limitsReply, "max_line"), "4096");
    EXPECT_EQ(field(limitsReply, "max_repeat"), "10000");
}

TEST(ServeService, FuzzedWireLinesNeverThrowAndServiceSurvives) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 2,2,2");
    std::uint64_t state = 0xDEADBEEFCAFEF00DULL;
    const auto next = [&state]() {
        state ^= state << 13U;
        state ^= state >> 7U;
        state ^= state << 17U;
        return state;
    };
    for (int round = 0; round < 500; ++round) {
        std::string line;
        const std::size_t length = next() % 96;
        for (std::size_t i = 0; i < length; ++i) {
            line += static_cast<char>(next() % 256);
        }
        // handleLine's contract: never throws, one OK/ERR line (or empty
        // for blank/comment lines), and the connection stays open.
        const Response response = service.handleLine(line);
        if (!response.line.empty()) {
            const bool okReply = response.line.rfind("OK ", 0) == 0;
            const bool errReply = response.line.rfind("ERR ", 0) == 0;
            EXPECT_TRUE(okReply || errReply) << "round " << round << ": " << response.line;
            EXPECT_EQ(response.line.find('\n'), std::string::npos);
        }
    }
    // The resident target survived the abuse.
    EXPECT_EQ(field(ok(service, "VERIFY --id 1"), "fidelity"), "1.000000000");
}

TEST(ServeStream, StreamAppendReverifyLifecycle) {
    VerificationService service;
    const std::string stream = ok(service, "STREAM --dims 3,6,2 --checkpoint 2");
    EXPECT_EQ(field(stream, "id"), "1");
    EXPECT_EQ(field(stream, "family"), "stream");
    EXPECT_EQ(field(stream, "dims"), "[1x3,1x6,1x2]");
    EXPECT_EQ(field(stream, "checkpoint"), "2");

    // Gates go straight into the resident state; the reply carries the
    // running op count, and a checkpoint line lands exactly on cadence.
    const std::string first = ok(service, "APPEND --gate swp q[0] (0, 1);");
    EXPECT_EQ(field(first, "kind"), "stream");
    EXPECT_EQ(uintField(first, "ops"), 1U);
    EXPECT_EQ(field(first, "checkpoint"), ""); // off-cadence: no checkpoint field
    const std::string second =
        ok(service, "APPEND --gate rxy q[1] (0, 1, 0.7, 0.1) ctl q[0]=1;");
    EXPECT_EQ(uintField(second, "ops"), 2U);
    EXPECT_EQ(field(second, "checkpoint"), "1");
    EXPECT_EQ(field(second, "fidelity"), "1.000000000"); // unitarity: norm2 holds

    const std::string reverify = ok(service, "REVERIFY");
    EXPECT_EQ(field(reverify, "kind"), "stream");
    EXPECT_EQ(field(reverify, "fidelity"), "1.000000000");
    EXPECT_EQ(uintField(reverify, "ops"), 2U);
    EXPECT_EQ(uintField(reverify, "checkpoints"), 1U);

    // A stream has no independent target, so VERIFY refuses it by name.
    err(service, "VERIFY", "use REVERIFY");
}

TEST(ServeStream, AppendGrowsPreparedTargetsAndReverifyReplaysTheDelta) {
    VerificationService service;
    ok(service, "PREP:GHZ --dims 3,6,2");

    // First REVERIFY replays the whole circuit: the cursor starts at 0.
    const std::string full = ok(service, "REVERIFY");
    EXPECT_EQ(field(full, "kind"), "prepared");
    EXPECT_EQ(field(full, "fidelity"), "1.000000000");
    const std::uint64_t total = uintField(full, "total_ops");
    EXPECT_GT(total, 0U);
    EXPECT_EQ(uintField(full, "delta_ops"), total);

    // Append an identity pair: circuit and target advance together, so the
    // next REVERIFY replays exactly the two appended gates.
    ok(service, "APPEND --gate swp q[0] (0, 1);");
    const std::string grown = ok(service, "APPEND --gate swp q[0] (0, 1);");
    EXPECT_EQ(field(grown, "kind"), "prepared");
    EXPECT_EQ(uintField(grown, "ops"), total + 2);

    const std::string delta = ok(service, "REVERIFY");
    EXPECT_EQ(uintField(delta, "delta_ops"), 2U);
    EXPECT_EQ(uintField(delta, "total_ops"), total + 2);
    EXPECT_EQ(field(delta, "fidelity"), "1.000000000");
    // The delta is an identity, and hash-consing makes structural identity
    // root identity: the replay lands back on the old root, so the diff
    // shows pure sharing.
    EXPECT_GT(uintField(delta, "shared_nodes"), 0U);
    EXPECT_EQ(uintField(delta, "new_nodes"), 0U);
    EXPECT_EQ(uintField(delta, "dropped_nodes"), 0U);

    // Nothing appended since: a further REVERIFY is a zero-op delta.
    const std::string idle = ok(service, "REVERIFY");
    EXPECT_EQ(uintField(idle, "delta_ops"), 0U);
    EXPECT_EQ(field(idle, "fidelity"), "1.000000000");
}

TEST(ServeStream, StreamSessionsSkipBatchAndSurviveGc) {
    VerificationService service;
    ok(service, "STREAM --dims 3,6,2");
    ok(service, "APPEND --gate rxy q[0] (0, 1, 1.1, 0.2);");

    // With only a stream resident there is nothing for BATCH to replay.
    err(service, "BATCH", "nothing prepared yet");

    ok(service, "PREP:W --dims 3,6,2");
    const std::string batch = ok(service, "BATCH");
    EXPECT_EQ(uintField(batch, "items"), 1U); // the stream entry is skipped
    EXPECT_EQ(uintField(batch, "failures"), 0U);

    // Materialize the prepared target's replay cursor, then compact. Both
    // the streamed state and the replay cursor are live roots: GC must
    // keep them, and the idle REVERIFY afterwards needs no re-replay.
    ok(service, "REVERIFY --id 2");
    ok(service, "GC");
    const std::string stream = ok(service, "REVERIFY --id 1");
    EXPECT_EQ(field(stream, "kind"), "stream");
    EXPECT_EQ(field(stream, "fidelity"), "1.000000000");
    EXPECT_EQ(uintField(stream, "ops"), 1U);
    const std::string idle = ok(service, "REVERIFY --id 2");
    EXPECT_EQ(uintField(idle, "delta_ops"), 0U);
    EXPECT_EQ(field(idle, "fidelity"), "1.000000000");
}

TEST(ServeStream, BadStreamInputKeepsServing) {
    VerificationService service;
    err(service, "STREAM", "STREAM requires --dims");
    err(service, "APPEND --gate h q[0];", "nothing prepared yet");

    ok(service, "STREAM --dims 3,6,2");
    err(service, "APPEND", "APPEND requires --gate");
    err(service, "APPEND --gate warp q[0];", "unknown gate");
    err(service, "APPEND --gate h q[9];", "parseQasm");

    // Parse failures must not have advanced the stream.
    const std::string append = ok(service, "APPEND --gate h q[0];");
    EXPECT_EQ(uintField(append, "ops"), 1U);

    const std::string stats = ok(service, "STATS?");
    EXPECT_EQ(uintField(stats, "streams"), 1U);
    EXPECT_EQ(uintField(stats, "appended"), 1U); // failed APPENDs don't count
    EXPECT_EQ(uintField(stats, "reverified"), 0U);
}

TEST(ServeStream, NonFiniteAngleAppendIsRefusedAndLeavesTheTargetIntact) {
    VerificationService service;
    const std::uint64_t ops = uintField(ok(service, "PREP:GHZ --dims 3,6,2"), "ops");

    err(service, "APPEND --gate rxy q[1] (0, 1, nan, 0) ctl q[0]=1;",
        "rotation angles must be finite");
    err(service, "APPEND --gate rxy q[1] (0, 1, 0.5, inf) ctl q[0]=1;",
        "rotation angles must be finite");
    err(service, "APPEND --gate rz q[1] (0, 1, -inf);", "rotation angles must be finite");

    // Neither the circuit nor the target moved.
    EXPECT_EQ(field(ok(service, "VERIFY"), "fidelity"), "1.000000000");
    const std::string reverify = ok(service, "REVERIFY");
    EXPECT_EQ(field(reverify, "fidelity"), "1.000000000");
    EXPECT_EQ(uintField(reverify, "total_ops"), ops);
    EXPECT_EQ(uintField(ok(service, "STATS?"), "appended"), 0U);
}

} // namespace
} // namespace mqsp::serve
