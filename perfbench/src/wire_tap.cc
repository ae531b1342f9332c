// What the benchmark's clients really receive from the daemon.
//
// ServiceClient reads every reply frame with recv(2). The definition of
// recv below is linked into the benchmark executable, so it takes
// precedence over the C library's: it forwards to recvfrom(2) and feeds
// what it read to the calling thread's WireTap, if that thread installed
// one. Only the client threads do; the daemon's threads read untapped.
#include <sys/socket.h>
#include <sys/types.h>

#include <algorithm>

#include "bench.h"

namespace perfbench {
namespace {

thread_local WireTap* current_tap = nullptr;

void FeedCurrentTap(const void* data, ssize_t n) {
  if (n > 0 && current_tap != nullptr) {
    current_tap->Feed(static_cast<const unsigned char*>(data),
                      static_cast<size_t>(n));
  }
}

}  // namespace

WireTap::WireTap() : previous_(current_tap) { current_tap = this; }

WireTap::~WireTap() { current_tap = previous_; }

void WireTap::Feed(const unsigned char* data, size_t n) {
  bytes_ += static_cast<int64_t>(n);
  while (n > 0) {
    if (body_left_ > 0) {
      const size_t skip = std::min<size_t>(n, body_left_);
      data += skip;
      n -= skip;
      body_left_ -= skip;
      continue;
    }
    // Inside a frame's little-endian u32 length prefix.
    length_ |= static_cast<uint32_t>(*data++) << (8 * prefix_bytes_);
    --n;
    if (++prefix_bytes_ == 4) {
      ++frames_;
      body_left_ = length_;
      length_ = 0;
      prefix_bytes_ = 0;
    }
  }
}

}  // namespace perfbench

extern "C" ssize_t recv(int fd, void* buf, size_t len, int flags) {
  const ssize_t n = ::recvfrom(fd, buf, len, flags, nullptr, nullptr);
  perfbench::FeedCurrentTap(buf, n);
  return n;
}
