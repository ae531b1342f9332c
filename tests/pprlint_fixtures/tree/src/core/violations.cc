// Fixture: one seeded violation per line-regex rule, plus decoys that
// must NOT fire (mentions inside comments and string literals).
#include <cstdlib>
#include <mutex>
#include <string>

namespace fx {

// std::mutex in this comment must not count.
const char* kDecoy = "std::mutex getenv( new";

std::mutex g_raw_mutex;  // seeded: raw-sync

const char* ReadHome() { return getenv("FX_HOME"); }  // seeded: raw-getenv

int* LeakyAlloc() { return new int(7); }  // seeded: naked-new

template <typename Cache>
int OwnFactory(Cache* cache) {
  return cache->GetOrCompile(1, [] { return 2; });  // seeded: one-resolve
}

}  // namespace fx
