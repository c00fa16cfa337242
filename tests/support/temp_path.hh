/**
 * @file
 * Hermetic temp-file names. ctest runs every gtest case as its own
 * process, concurrently under -j, so a fixed name under TempDir() is
 * shared by every test that uses it and they overwrite each other's
 * files. tempPath() qualifies the name with the running test and the
 * process id, keeping `name` as the suffix so format detection by
 * extension still works.
 */

#ifndef DBSIM_TESTS_SUPPORT_TEMP_PATH_HH
#define DBSIM_TESTS_SUPPORT_TEMP_PATH_HH

#include <gtest/gtest.h>
#include <unistd.h>

#include <cctype>
#include <string>

namespace dbsim::test {

/**
 * TempDir() + "<Suite>.<Test>.<pid>." + name, unique per test run.
 * Call it from inside a test.
 */
inline std::string
tempPath(const std::string &name)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string test =
        std::string(info->test_suite_name()) + "." + info->name();
    for (char &c : test) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') {
            c = '_';
        }
    }
    return ::testing::TempDir() + test + "." + std::to_string(::getpid()) +
           "." + name;
}

} // namespace dbsim::test

#endif // DBSIM_TESTS_SUPPORT_TEMP_PATH_HH
