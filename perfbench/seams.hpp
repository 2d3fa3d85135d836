// Decorators the benchmark owns at two of the library's public seams: the
// cluster router's Transport/ServerChannel and the BlockDevice under an
// IoServer.  While g_tracing is set they time every call and count what
// crosses the seam; otherwise they only forward, so the untraced phase
// runs the same stack at the cost of one virtual call per crossing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>

#include "cluster/transport.hpp"
#include "device/device.hpp"
#include "probe.hpp"

namespace perfbench {

/// Counts from one seam; relaxed atomics, summed over every instance.
struct SeamStats {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> bytes{0};     ///< device: bytes moved
  std::atomic<std::uint64_t> refusals{0};  ///< channel: Errc::overloaded

  void reset() noexcept {
    calls = 0;
    ns = 0;
    bytes = 0;
    refusals = 0;
  }
  void note(Clock::time_point t0, std::uint64_t n) noexcept {
    ns.fetch_add(ns_between(t0, Clock::now()), std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    bytes.fetch_add(n, std::memory_order_relaxed);
  }
  double mean_us() const noexcept {
    const auto c = calls.load();
    return c == 0 ? 0.0 : static_cast<double>(ns.load()) / 1e3 / c;
  }
};

class TimedChannel final : public pio::cluster::ServerChannel {
 public:
  TimedChannel(std::unique_ptr<pio::cluster::ServerChannel> inner,
               SeamStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  pio::Result<pio::server::Future> submit(
      pio::server::RequestOp op) override {
    if (!g_tracing.load(std::memory_order_relaxed)) {
      return inner_->submit(std::move(op));
    }
    const auto t0 = Clock::now();
    auto result = inner_->submit(std::move(op));
    stats_.note(t0, 0);
    if (result.code() == pio::Errc::overloaded) {
      stats_.refusals.fetch_add(1, std::memory_order_relaxed);
    }
    return result;
  }
  pio::Result<pio::server::FileToken> open(const std::string& name) override {
    return inner_->open(name);
  }
  pio::Status close(pio::server::FileToken file) override {
    return inner_->close(file);
  }
  pio::Status flush() override { return inner_->flush(); }
  bool detached_payloads() const override {
    return inner_->detached_payloads();
  }

 private:
  std::unique_ptr<pio::cluster::ServerChannel> inner_;
  SeamStats& stats_;
};

class TimedTransport final : public pio::cluster::Transport {
 public:
  TimedTransport(pio::cluster::Transport& inner, SeamStats& stats)
      : inner_(inner), stats_(stats) {}

  std::size_t server_count() const override { return inner_.server_count(); }
  pio::Result<std::unique_ptr<pio::cluster::ServerChannel>> connect(
      std::size_t server) override {
    auto channel = inner_.connect(server);
    if (!channel.ok()) return pio::Error(channel.error());
    return std::unique_ptr<pio::cluster::ServerChannel>(
        std::make_unique<TimedChannel>(std::move(*channel), stats_));
  }

 private:
  pio::cluster::Transport& inner_;
  SeamStats& stats_;
};

class TimedDevice final : public pio::BlockDevice {
 public:
  TimedDevice(std::unique_ptr<pio::BlockDevice> inner, SeamStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  pio::Status read(std::uint64_t offset, std::span<std::byte> out) override {
    return timed(out.size(), [&] { return inner_->read(offset, out); });
  }
  pio::Status write(std::uint64_t offset,
                    std::span<const std::byte> in) override {
    return timed(in.size(), [&] { return inner_->write(offset, in); });
  }
  pio::Status readv(std::span<const pio::IoVec> iov) override {
    return timed(pio::iov_bytes(iov), [&] { return inner_->readv(iov); });
  }
  pio::Status writev(std::span<const pio::ConstIoVec> iov) override {
    return timed(pio::iov_bytes(iov), [&] { return inner_->writev(iov); });
  }
  pio::Status probe() override { return inner_->probe(); }
  std::uint64_t capacity() const noexcept override {
    return inner_->capacity();
  }
  const std::string& name() const noexcept override { return inner_->name(); }
  const pio::DeviceCounters& counters() const noexcept override {
    return inner_->counters();
  }

 private:
  template <typename Fn>
  pio::Status timed(std::uint64_t bytes, Fn&& fn) {
    if (!g_tracing.load(std::memory_order_relaxed)) return fn();
    const auto t0 = Clock::now();
    pio::Status status = fn();
    stats_.note(t0, bytes);
    return status;
  }

  std::unique_ptr<pio::BlockDevice> inner_;
  SeamStats& stats_;
};

}  // namespace perfbench
