/**
 * @file
 * A fresh directory for tests that write files, removed with
 * everything in it when the test ends, and a whole-file reader.
 */

#ifndef CRYOWIRE_TESTS_TEMP_DIR_HH
#define CRYOWIRE_TESTS_TEMP_DIR_HH

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cryo::test
{

/** mkdtemp() under the system temp directory; unique per instance,
 * so tests that run at once never share a file. */
struct TempDir
{
    TempDir()
    {
        std::string tmpl = (std::filesystem::temp_directory_path() /
                            "cryowire_test.XXXXXX")
                               .string();
        if (::mkdtemp(tmpl.data()) == nullptr)
            throw std::runtime_error("mkdtemp failed for " + tmpl);
        path = tmpl;
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    std::string path;
};

/** Every byte of @p path ("" when it cannot be read). */
inline std::string
readFile(const std::string &path)
{
    std::ifstream in{path, std::ios::binary};
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

} // namespace cryo::test

#endif // CRYOWIRE_TESTS_TEMP_DIR_HH
