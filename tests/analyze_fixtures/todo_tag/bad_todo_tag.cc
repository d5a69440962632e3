// Fixture for the todo-tag pass: untagged to-do markers go stale with no
// owner; require TODO(#issue) or TODO(name).

namespace frn_fixture {

// TODO: make this configurable             [expect:todo-tag]
inline constexpr int kLimit = 8;

// FIXME tune this constant                 [expect:todo-tag]
inline constexpr int kOther = 9;

// TODO(#42): tagged with an issue — silent.
// FIXME(alice): tagged with an owner — silent.
inline constexpr int kTagged = 10;

// Suppressed — must NOT appear in the findings:
// TODO: transitional, see the commit message  // frn:allow(todo-tag)
inline constexpr int kAllowed = 11;

}  // namespace frn_fixture
