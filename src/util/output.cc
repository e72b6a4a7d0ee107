#include "output.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/diag.hh"

namespace cryo
{

namespace
{

[[noreturn]] void
failed(const char *step, const std::string &path, int err)
{
    fatal(std::string("cannot ") + step + " \"" + path +
          "\": " + std::strerror(err));
}

} // namespace

void
writeFile(const std::string &path, std::string_view bytes)
{
    const int fd =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
    if (fd < 0)
        failed("open", path, errno);
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            const int err = errno;
            ::close(fd);
            failed("write", path, err);
        }
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
    if (::close(fd) != 0)
        failed("close", path, errno);
}

std::string
csvRow(const std::vector<std::string> &cells)
{
    std::string row;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            row += ',';
        const std::string &cell = cells[i];
        if (cell.find_first_of(",\"\n") == std::string::npos) {
            row += cell;
            continue;
        }
        row += '"';
        for (const char ch : cell) {
            if (ch == '"')
                row += '"';
            row += ch;
        }
        row += '"';
    }
    row += '\n';
    return row;
}

} // namespace cryo
