#ifndef RATEL_TESTS_SCOPED_TEMP_DIR_H_
#define RATEL_TESTS_SCOPED_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

namespace ratel {

/// A fresh `ratel_<tag>_XXXXXX` under ::testing::TempDir(), unique per
/// construction (mkdtemp) and removed recursively on destruction, so no
/// run inherits another's stores or checkpoints and none leaves a trace.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& tag) {
    path_ = ::testing::TempDir() + "ratel_" + tag + "_XXXXXX";
    if (::mkdtemp(path_.data()) == nullptr) ADD_FAILURE() << "mkdtemp failed";
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  /// `path()/name`, not created: stores and checkpoints make their own.
  std::string Sub(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Fixture giving every test its own `tmp`, named after its suite. A
/// suite opts in with `using MySuite = TempDirTest;` and TEST_F.
class TempDirTest : public ::testing::Test {
 protected:
  const ScopedTempDir tmp{::testing::UnitTest::GetInstance()
                              ->current_test_info()
                              ->test_suite_name()};
};

}  // namespace ratel

#endif  // RATEL_TESTS_SCOPED_TEMP_DIR_H_
