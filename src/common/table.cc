#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/strfmt.h"

namespace rome
{

void
Table::setHeader(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
Table::addRow(std::vector<std::string> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    // Compute column widths across header and all rows.
    std::size_t ncols = header_.size();
    for (const auto& r : rows_)
        ncols = std::max(ncols, r.size());
    std::vector<std::size_t> width(ncols, 0);
    auto widen = [&](const std::vector<std::string>& cells) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    widen(header_);
    for (const auto& r : rows_)
        widen(r);

    auto renderRow = [&](const std::vector<std::string>& cells) {
        std::string line = "|";
        for (std::size_t i = 0; i < ncols; ++i) {
            const std::string& c = i < cells.size() ? cells[i] : std::string{};
            line += " " + c + std::string(width[i] - c.size(), ' ') + " |";
        }
        return line + "\n";
    };
    auto renderSep = [&]() {
        std::string line = "+";
        for (std::size_t i = 0; i < ncols; ++i)
            line += std::string(width[i] + 2, '-') + "+";
        return line + "\n";
    };

    std::string out;
    if (!title_.empty())
        out += "== " + title_ + " ==\n";
    out += renderSep();
    if (!header_.empty()) {
        out += renderRow(header_);
        out += renderSep();
    }
    for (const auto& r : rows_)
        out += renderRow(r);
    out += renderSep();
    return out;
}

void
Table::print() const
{
    const std::string s = render();
    std::fwrite(s.data(), 1, s.size(), stdout);
    std::fflush(stdout);
}

std::string
Table::num(double v, int precision)
{
    return strfmt("%.*f", precision, v);
}

std::string
Table::bytes(std::uint64_t b)
{
    constexpr std::uint64_t ki = 1024, mi = ki * 1024, gi = mi * 1024;
    if (b >= gi) {
        return strfmt("%.2f GiB",
                      static_cast<double>(b) / static_cast<double>(gi));
    }
    if (b >= mi) {
        return strfmt("%.2f MiB",
                      static_cast<double>(b) / static_cast<double>(mi));
    }
    if (b >= ki) {
        return strfmt("%.2f KiB",
                      static_cast<double>(b) / static_cast<double>(ki));
    }
    return strfmt("%llu B", static_cast<unsigned long long>(b));
}

std::string
Table::percent(double fraction, int precision)
{
    return strfmt("%.*f %%", precision, fraction * 100.0);
}

} // namespace rome
