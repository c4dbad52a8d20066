#include "common/thread_pool.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>

namespace jdvs {
namespace {

// The pool whose worker is the calling thread, and the due time of the task
// it is running (0 between tasks and off-pool).
thread_local const ThreadPool* tls_pool = nullptr;
thread_local Micros tls_task_due = 0;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::string name,
                       std::size_t queue_capacity)
    : capacity_(std::max<std::size_t>(queue_capacity, 1)),
      name_(std::move(name)) {
  threads_.reserve(std::max<std::size_t>(num_threads, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(num_threads, 1); ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::SubmitAfter(Micros delay_micros, std::function<void()> task) {
  const Micros now = MonotonicClock::Instance().NowMicros();
  // Every notify below happens while holding mu_: once the task is visible
  // a worker may run it and release whatever keeps this pool's owner alive
  // (e.g. fulfil the promise a caller is blocked on), so no member may be
  // touched after the lock is dropped.
  std::unique_lock lock(mu_);
  if (tls_pool != this) {
    not_full_cv_.wait(lock, [this] {
      return closed_ || ready_.size() + delayed_.size() < capacity_;
    });
  }
  if (closed_) return false;
  const std::uint64_t seq = next_seq_++;
  if (delay_micros <= 0) {
    ready_.push_back(Item{std::move(task), now, seq});
    UpdateMax(peak_queue_, ready_.size());
    work_cv_.notify_one();
    return true;
  }
  delayed_.push_back(Item{std::move(task), now + delay_micros, seq});
  std::push_heap(delayed_.begin(), delayed_.end(), LaterDue);
  if (delayed_.front().seq == seq) {
    // New earliest due time: whoever is doing the timed wait sleeps too
    // long. Retire it and wake a worker to take the wait over -- unless the
    // poster is one of this pool's workers, which takes the wait over
    // itself when its task returns, saving a wakeup per reply hop.
    timer_waiter_ = std::thread::id();
    if (tls_pool != this) work_cv_.notify_one();
  }
  return true;
}

Micros ThreadPool::CurrentTaskDueMicros() { return tls_task_due; }

std::size_t ThreadPool::pending() const {
  std::lock_guard lock(mu_);
  return ready_.size() + delayed_.size();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard lock(mu_);
  return ready_.size();
}

void ThreadPool::ResetPeakStats() {
  peak_busy_.store(busy_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  peak_queue_.store(queue_depth(), std::memory_order_relaxed);
}

void ThreadPool::UpdateMax(std::atomic<std::size_t>& peak, std::size_t value) {
  std::size_t current = peak.load(std::memory_order_relaxed);
  while (current < value &&
         !peak.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard lock(mu_);
    closed_ = true;
    work_cv_.notify_all();
    not_full_cv_.notify_all();
  }
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

bool ThreadPool::NextTask(std::unique_lock<std::mutex>& lock, Item& out) {
  const std::thread::id self = std::this_thread::get_id();
  for (;;) {
    if (!delayed_.empty()) {
      // Move every due task behind the ready ones; once closed, all of them
      // are due, so a drain never waits out a delay.
      const Micros now = MonotonicClock::Instance().NowMicros();
      while (!delayed_.empty() &&
             (closed_ || delayed_.front().due_micros <= now)) {
        std::pop_heap(delayed_.begin(), delayed_.end(), LaterDue);
        ready_.push_back(std::move(delayed_.back()));
        delayed_.pop_back();
      }
      UpdateMax(peak_queue_, ready_.size());
    }
    if (!ready_.empty()) {
      out = std::move(ready_.front());
      ready_.pop_front();
      not_full_cv_.notify_one();
      // Leftover work, or a delay heap nobody is timing: wake a peer.
      if (!ready_.empty() ||
          (!delayed_.empty() && timer_waiter_ == std::thread::id())) {
        work_cv_.notify_one();
      }
      return true;
    }
    if (closed_) return false;
    if (delayed_.empty() || timer_waiter_ != std::thread::id()) {
      work_cv_.wait(lock);
      continue;
    }
    timer_waiter_ = self;
    work_cv_.wait_until(lock, std::chrono::steady_clock::time_point(
                                  std::chrono::microseconds(
                                      delayed_.front().due_micros)));
    if (timer_waiter_ == self) timer_waiter_ = std::thread::id();
  }
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  // Workers carry their pool's name (the node's, for node pools), so
  // /proc/<pid>/task/*/comm and any profiler can attribute CPU to a pool.
  // Linux caps thread names at 15 characters.
  pthread_setname_np(pthread_self(), name_.substr(0, 15).c_str());
  Item item;
  std::unique_lock lock(mu_);
  while (NextTask(lock, item)) {
    lock.unlock();
    if (Histogram* h = queue_wait_.load(std::memory_order_acquire)) {
      h->Record(std::max<Micros>(
          0, MonotonicClock::Instance().NowMicros() - item.due_micros));
    }
    UpdateMax(peak_busy_, busy_.fetch_add(1, std::memory_order_relaxed) + 1);
    tls_task_due = item.due_micros;
    item.fn();
    tls_task_due = 0;
    // Release the task's captures before re-taking the lock: a capture's
    // destructor may submit to this pool.
    item.fn = nullptr;
    busy_.fetch_sub(1, std::memory_order_relaxed);
    lock.lock();
  }
}

}  // namespace jdvs
