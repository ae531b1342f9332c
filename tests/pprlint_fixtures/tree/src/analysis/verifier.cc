// Fixture: the verified compile is one of the callers verified-compile
// allows.
namespace fx {

template <typename PhysicalPlan, typename... Args>
auto CompileVerified(Args&&... args) {
  return PhysicalPlan::Compile(args...);
}

}  // namespace fx
