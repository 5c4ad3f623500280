// The invocation runtime: call-by-reference with system-managed
// rendezvous of code and data (§3).
//
// An invocation names a function (a code object) and a list of
// GlobalPtrs — no argument serialization, no location in the API.  The
// runtime makes the referenced objects resident (via the fetcher) and
// runs the function over the local store.  Data the function reaches
// that is NOT yet resident surfaces as an *object fault*: the function
// aborts cheaply, the runtime fetches the faulted objects (and whatever
// the prefetch policy adds), and re-executes — the paper's "move data on
// demand instead of having to move the entire object" in fault-and-retry
// form, directly analogous to demand paging.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/code.hpp"
#include "core/fetch.hpp"
#include "objspace/structures.hpp"

namespace objrpc {

/// What a running function sees.  resolve() never blocks: a miss is
/// recorded as a fault and returns not_found; the runtime re-runs the
/// function once the fault set is resident.
class InvokeContext {
 public:
  InvokeContext(HostNode& host, ObjectFetcher& fetcher)
      : host_(host), fetcher_(fetcher) {}

  /// Resolve an object to the local store or record a fault.
  Result<ObjectPtr> resolve(ObjectId id);
  Result<ObjectPtr> resolve(const GlobalPtr& ptr) {
    return resolve(ptr.object);
  }
  /// An ObjectResolver view of this context, for reusable traversals
  /// (ObjLinkedList::walk, sparse_infer, ...).
  ObjectResolver resolver();

  const std::vector<ObjectId>& faults() const { return faults_; }
  bool faulted() const { return !faults_.empty(); }

  HostNode& host() { return host_; }
  HostAddr self() const { return host_.addr(); }

 private:
  HostNode& host_;
  ObjectFetcher& fetcher_;
  std::vector<ObjectId> faults_;
};

struct InvokeOptions {
  /// Bound on fault-fetch-retry rounds (a pathological pointer chase
  /// could otherwise run forever).
  int max_fault_rounds = 256;
  SimDuration timeout = 100 * kMillisecond;
  int max_attempts = 2;
  /// Tenant tag stamped on the invoke_req (and echoed on its response),
  /// so remote invocations are fair-queued against the caller's tenant
  /// like any other access (DESIGN.md §13).  0 = infrastructure.
  std::uint32_t tenant = 0;
};

struct InvokeStats {
  /// Execution rounds (1 = ran without faulting).
  int rounds = 0;
  /// Objects pulled to satisfy faults and argument residency.
  int objects_fetched = 0;
  /// Executor that actually ran the function.
  HostAddr executor = kUnspecifiedHost;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  SimDuration elapsed() const { return finished_at - started_at; }
};

using InvokeCallback =
    std::function<void(Result<Bytes>, const InvokeStats&)>;

/// Per-host invocation engine.  Handles inbound invoke_req frames and
/// issues outbound invocations.
class InvokeRuntime {
 public:
  InvokeRuntime(ObjNetService& service, CodeRegistry& registry,
                ObjectFetcher& fetcher);

  /// Run `fn` here, fetching argument objects and faulted objects as
  /// needed.
  void execute_local(FuncId fn, std::vector<GlobalPtr> args, Bytes inline_arg,
                     InvokeCallback cb, InvokeOptions opts = {});

  /// Run `fn` on `executor` (which may be this host).
  void invoke_at(HostAddr executor, FuncId fn, std::vector<GlobalPtr> args,
                 Bytes inline_arg, InvokeCallback cb, InvokeOptions opts = {});

  // fablint:allow(raw-counter) feeds the figure benches directly
  struct Counters {
    std::uint64_t fault_rounds = 0;
    std::uint64_t failures = 0;
  };
  const Counters& counters() const { return counters_; }

  ObjNetService& service() { return service_; }
  ObjectFetcher& fetcher() { return fetcher_; }
  /// Remote-invocation deadlines, keyed by token.
  const DeadlineTimer<std::uint64_t>& deadline_timer() const { return timer_; }

 private:
  struct PendingInvoke {
    InvokeCallback cb;
    InvokeOptions opts;
    InvokeStats stats;  // stats.executor is the invoke_req's destination
    Bytes payload;      // the encoded invocation, resent as is
    int attempts = 0;   // invoke_reqs sent
  };
  using Done = std::function<void(Result<Bytes>)>;

  void on_invoke_req(const Frame& f);
  /// Fetch `ids` in order, counting each in objects_fetched; the first
  /// failure completes through `done`, the last success runs `then`.
  void fetch_then(const std::vector<ObjectId>& ids,
                  std::shared_ptr<InvokeStats> stats, Done done,
                  std::function<void()> then);
  void run_rounds(FuncId fn, std::vector<GlobalPtr> args, Bytes inline_arg,
                  InvokeOptions opts, std::shared_ptr<InvokeStats> stats,
                  Done done, int round);
  void send_remote(std::uint64_t token);
  /// A remote attempt went unanswered: resend, or give up.
  void on_deadline(std::uint64_t token);
  void finish_remote(std::uint64_t token, Result<Bytes> result);

  static Bytes encode_invoke(FuncId fn, const std::vector<GlobalPtr>& args,
                             ByteSpan inline_arg);
  struct DecodedInvoke {
    FuncId fn;
    std::vector<GlobalPtr> args;
    Bytes inline_arg;
  };
  static Result<DecodedInvoke> decode_invoke(ByteSpan payload);

  ObjNetService& service_;
  CodeRegistry& registry_;
  ObjectFetcher& fetcher_;
  std::unordered_map<std::uint64_t, PendingInvoke> pending_;
  std::uint64_t next_token_ = 1;
  DeadlineTimer<std::uint64_t> timer_;
  Counters counters_;
};

}  // namespace objrpc
