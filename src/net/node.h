// Simulated cluster node.
//
// Each blender, broker and searcher instance of Figure 10 runs as a Node: a
// named entity with its own bounded worker pool (standing in for a server's
// cores) and a fail switch for availability experiments. Invoke() is the RPC
// entry point: the callable runs on the *callee's* pool, and the result
// travels back through a future — so fan-out calls from one node to many
// execute genuinely in parallel, and a saturated node queues requests
// exactly like a busy server. InvokeAsync() is the continuation-passing
// variant the serving pipeline uses: the result is delivered to a
// completion callback on the callee's pool, so no caller thread ever parks
// waiting for a response.
//
// Wire time is a due time in the callee's queue. Each RPC samples one
// request hop and one reply hop from the node's LatencyModel (HopStream:
// per-node, counter-based). The request is posted to the callee's pool with
// ThreadPool::SubmitAfter(request hop), the reply continuation with
// SubmitAfter(reply hop); while a message is in flight it sits in the pool's
// delay heap and holds no worker. Workers are busy only while they execute,
// so pool saturation and queue wait measure service, not the simulator.
//
// Fault model: an attached FaultInjector (set_fault_injector) gives every
// message a per-link fate — dropped request, dropped or duplicated reply,
// stretched latency (scaling both hop delays), directed partition. A
// dropped message is *silent*: the continuation never fires unless the
// caller armed a per-RPC timeout (InvokeAsyncWithTimeout), in which case the
// shared TimeoutScheduler delivers a typed RpcTimeoutError instead, and a
// late or duplicated reply is swallowed by the per-call first-completion-wins
// guard.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "net/fault_injector.h"
#include "net/latency_model.h"
#include "net/rpc.h"
#include "net/timeout.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "qos/deadline.h"

namespace jdvs {

// Thrown by Invoke()'d work when the callee is marked failed; surfaces to
// the caller through the future (brokers catch it and fail over to a
// replica, Section 2.4 "multiple copies for availability").
class NodeFailedError : public std::runtime_error {
 public:
  explicit NodeFailedError(const std::string& node)
      : std::runtime_error("node failed: " + node) {}
};

class Node {
 public:
  Node(std::string name, std::size_t threads, LatencyModel latency = {},
       std::uint64_t seed = 0)
      : name_(std::move(name)),
        latency_(latency),
        request_hops_(HashCombine(Mix64(seed), Fnv1a64(name_)), 0),
        reply_hops_(HashCombine(Mix64(seed), Fnv1a64(name_)), 1),
        pool_(threads, name_) {}

  // Schedules `fn` on this node's pool after one inbound network hop; the
  // future is fulfilled after one outbound hop.
  // Throws NodeFailedError through the future while failed() is set. With a
  // fault injector attached, a dropped message breaks the promise (the
  // future throws std::future_error) rather than hanging the caller.
  template <typename F>
  auto Invoke(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    InvokeAsync(std::forward<F>(fn), [promise](AsyncResult<R> result) {
      if (!result.ok()) {
        promise->set_exception(result.error);
      } else if constexpr (std::is_void_v<R>) {
        promise->set_value();
      } else {
        promise->set_value(std::move(*result.value));
      }
    });
    return future;
  }

  // Continuation-passing Invoke: schedules `fn` on this node's pool exactly
  // like Invoke(), but delivers the outcome (value or std::exception_ptr,
  // including the NodeFailedError thrown while failed() is set) to `on_done`
  // as an AsyncResult<R> instead of a future. `on_done` runs on the callee's
  // pool once the reply hop has elapsed (on the same thread, right after
  // `fn`, when the hop is zero); no caller thread blocks. If the pool is
  // already shut down the task runs inline so the callback always fires.
  template <typename F, typename Done>
  void InvokeAsync(F&& fn, Done&& on_done) {
    InvokeAsyncWithTimeout(0, std::forward<F>(fn), std::forward<Done>(on_done));
  }

  // InvokeAsync with a per-RPC timeout: when `timeout_micros` > 0 and no
  // reply reached `on_done` by then, the shared TimeoutScheduler delivers
  // AsyncResult<R>::Fail(RpcTimeoutError) on its timer thread. Exactly one
  // delivery ever reaches `on_done` — reply, duplicated reply or timeout —
  // whichever wins the per-call OnceCallback guard; the rest are swallowed
  // (and a swallowed injected duplicate is counted by the injector).
  template <typename F, typename Done>
  void InvokeAsyncWithTimeout(Micros timeout_micros, F&& fn, Done&& on_done) {
    using R = std::invoke_result_t<F>;
    FaultInjector* injector = fault_injector_.load(std::memory_order_acquire);
    if (injector == nullptr && timeout_micros <= 0) {
      // Clean fabric, no deadline to arm: skip the guard entirely. This is
      // the steady-state hot path.
      Post(request_hops_.Next(latency_),
           [this, fn = std::forward<F>(fn),
            done = std::forward<Done>(on_done)]() mutable {
             RpcSourceScope source(name_);
             AsyncResult<R> result = Execute<R>(fn);
             Reply(reply_hops_.Next(latency_),
                   [done = std::move(done),
                    result = std::move(result)]() mutable {
                     done(std::move(result));
                   });
           });
      return;
    }

    // Guarded path: the message gets a fate from the injector and the
    // continuation gets a first-completion-wins guard shared with the
    // timeout timer.
    FaultInjector::Decision decision;
    if (injector != nullptr) decision = injector->Decide(CurrentRpcSource(), name_);
    auto guard =
        std::make_shared<OnceCallback<R>>(std::forward<Done>(on_done));
    if (timeout_micros > 0) {
      const TimeoutScheduler::TimerId id = TimeoutScheduler::Default().Schedule(
          timeout_micros, [guard, callee = name_, timeout_micros] {
            guard->Deliver(AsyncResult<R>::Fail(std::make_exception_ptr(
                RpcTimeoutError(callee, timeout_micros))));
          });
      guard->timer_id.store(id, std::memory_order_release);
    }
    if (decision.drop_request) {
      // Lost in transit: the callee never sees it. Only the timer (if any)
      // can answer the caller — exactly the hang the timeout exists for.
      return;
    }
    Post(decision.ScaleHop(request_hops_.Next(latency_)),
         [this, injector, decision, guard, fn = std::forward<F>(fn)]() mutable {
           RpcSourceScope source(name_);
           AsyncResult<R> result = Execute<R>(fn);
           if (decision.drop_reply) {
             // The work ran (side effects applied) but the caller hears
             // nothing.
             if (injector != nullptr) injector->OnReplyDropped();
             return;
           }
           Reply(decision.ScaleHop(reply_hops_.Next(latency_)),
                 [injector, decision, guard,
                  result = std::move(result)]() mutable {
                   if (decision.duplicate_reply) {
                     if constexpr (std::is_void_v<R> ||
                                   std::is_copy_constructible_v<R>) {
                       AsyncResult<R> duplicate = result;
                       DeliverAndCancelTimer(*guard, std::move(result));
                       if (!guard->Deliver(std::move(duplicate)) &&
                           injector != nullptr) {
                         injector->OnDuplicateSuppressed();
                       }
                       return;
                     }
                   }
                   DeliverAndCancelTimer(*guard, std::move(result));
                 });
         });
  }

  // Span-aware InvokeAsync: `fn(span)` runs under a child span of `parent`
  // covering the callee-side execution; an exception marks the span failed
  // and reaches `on_done` as the AsyncResult error. The span finishes when
  // `fn` returns — work that outlives `fn` (a continuation chain) should
  // instead own a Span in its per-request state.
  template <typename F, typename Done>
  void InvokeSpannedAsync(obs::TraceSink* sink, const obs::TraceContext& parent,
                          std::string span_name, F&& fn, Done&& on_done) {
    InvokeAsync(
        [this, sink, parent, name = std::move(span_name),
         fn = std::forward<F>(fn)]() mutable {
          obs::Span span(sink, MonotonicClock::Instance(), parent,
                         std::move(name), name_);
          try {
            return fn(span);
          } catch (const std::exception& e) {
            span.SetError(e.what());
            throw;
          }
        },
        std::forward<Done>(on_done));
  }

  // Deadline-aware InvokeSpannedAsync: identical, except the deadline is
  // re-checked on the callee's pool thread after the request hop — i.e.
  // after the time the call spent in the network and the pool queue — and
  // an expired budget fails the call with DeadlineExceededError *before*
  // `fn` runs, so a saturated node sheds queued work it could no longer
  // answer in time instead of scanning for a caller that already gave up.
  // The span still records, tagged deadline_exceeded, so traces show where
  // budgets die. An unlimited deadline costs one integer compare.
  // `timeout_micros` > 0 additionally arms a per-RPC timeout (see
  // InvokeAsyncWithTimeout) so a dropped message cannot hang the caller.
  template <typename F, typename Done>
  void InvokeSpannedAsyncWithDeadline(obs::TraceSink* sink,
                                      const obs::TraceContext& parent,
                                      std::string span_name,
                                      qos::Deadline deadline,
                                      Micros timeout_micros, F&& fn,
                                      Done&& on_done) {
    InvokeAsyncWithTimeout(
        timeout_micros,
        [this, sink, parent, name = std::move(span_name), deadline,
         fn = std::forward<F>(fn)]() mutable {
          obs::Span span(sink, MonotonicClock::Instance(), parent,
                         std::move(name), name_);
          if (deadline.Expired(MonotonicClock::Instance())) {
            span.AddTag("deadline_exceeded", std::uint64_t{1});
            span.SetError("deadline exceeded");
            throw qos::DeadlineExceededError(name_);
          }
          try {
            return fn(span);
          } catch (const std::exception& e) {
            span.SetError(e.what());
            throw;
          }
        },
        std::forward<Done>(on_done));
  }

  template <typename F, typename Done>
  void InvokeSpannedAsyncWithDeadline(obs::TraceSink* sink,
                                      const obs::TraceContext& parent,
                                      std::string span_name,
                                      qos::Deadline deadline, F&& fn,
                                      Done&& on_done) {
    InvokeSpannedAsyncWithDeadline(sink, parent, std::move(span_name),
                                   deadline, /*timeout_micros=*/0,
                                   std::forward<F>(fn),
                                   std::forward<Done>(on_done));
  }

  // Span-aware Invoke: runs `fn(span)` on this node's pool under a span that
  // is a child of `parent`, covering the callee-side execution (the gap
  // between the parent span and this one is network + queue time). The span
  // is a no-op when `parent` is unsampled or `sink` is null, so untraced
  // requests pay nothing. An exception from `fn` marks the span failed and
  // still propagates through the future.
  template <typename F>
  auto InvokeSpanned(obs::TraceSink* sink, const obs::TraceContext& parent,
                     std::string span_name, F&& fn)
      -> std::future<std::invoke_result_t<F, obs::Span&>> {
    return Invoke([this, sink, parent, name = std::move(span_name),
                   fn = std::forward<F>(fn)]() mutable {
      obs::Span span(sink, MonotonicClock::Instance(), parent,
                     std::move(name), name_);
      try {
        return fn(span);
      } catch (const std::exception& e) {
        span.SetError(e.what());
        throw;
      }
    });
  }

  void set_failed(bool failed) {
    failed_.store(failed, std::memory_order_release);
  }
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  // Attaches (or detaches, with null) the fault injector consulted for
  // every message into this node. The injector must outlive the node's
  // in-flight work; benches install it at cluster wiring time.
  void set_fault_injector(FaultInjector* injector) {
    fault_injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return fault_injector_.load(std::memory_order_acquire);
  }

  const std::string& name() const { return name_; }
  ThreadPool& pool() { return pool_; }
  const LatencyModel& latency() const { return latency_; }

 private:
  // Runs `task` on this node's pool once `delay_micros` of wire time have
  // passed. The shared_ptr wrapper lets move-only captures through
  // std::function, and lets a failed SubmitAfter (pool shut down) still run
  // the task, inline.
  template <typename Task>
  void Post(Micros delay_micros, Task&& task) {
    auto shared =
        std::make_shared<std::decay_t<Task>>(std::forward<Task>(task));
    if (!pool_.SubmitAfter(delay_micros, [shared] { (*shared)(); })) {
      (*shared)();
    }
  }

  // Response transit: `deliver` runs on this node's pool after the reply
  // hop, or right away on the calling pool thread when the hop is zero.
  template <typename Deliver>
  void Reply(Micros delay_micros, Deliver&& deliver) {
    if (delay_micros <= 0) {
      deliver();
      return;
    }
    Post(delay_micros,
         [this, deliver = std::forward<Deliver>(deliver)]() mutable {
           RpcSourceScope source(name_);
           deliver();
         });
  }

  // Callee side of one RPC: NodeFailedError while failed() is set,
  // otherwise `fn`'s value or exception.
  template <typename R, typename F>
  AsyncResult<R> Execute(F& fn) {
    AsyncResult<R> result;
    try {
      if (failed_.load(std::memory_order_acquire)) {
        throw NodeFailedError(name_);
      }
      if constexpr (std::is_void_v<R>) {
        fn();
      } else {
        result.value.emplace(fn());
      }
    } catch (...) {
      result.error = std::current_exception();
    }
    return result;
  }

  std::string name_;
  LatencyModel latency_;
  HopStream request_hops_;
  HopStream reply_hops_;
  std::atomic<bool> failed_{false};
  std::atomic<FaultInjector*> fault_injector_{nullptr};
  ThreadPool pool_;
};

}  // namespace jdvs
