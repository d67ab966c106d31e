/**
 * @file
 * ASCII table rendering for bench output. Every bench prints the rows and
 * series the paper's figures/tables report through this formatter so output
 * is uniform and diffable.
 */

#ifndef ROME_COMMON_TABLE_H
#define ROME_COMMON_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace rome
{

/** Column-aligned ASCII table with an optional title. */
class Table
{
  public:
    explicit Table(std::string title = {}) : title_(std::move(title)) {}

    /** Set header cells. */
    void setHeader(std::vector<std::string> cells);

    /** Append a data row (cells need not match header length). */
    void addRow(std::vector<std::string> cells);

    /** Render to a string. */
    std::string render() const;

    /** Render and write to stdout. */
    void print() const;

    /** Format helpers for numeric cells. */
    static std::string num(double v, int precision = 2);
    static std::string bytes(std::uint64_t b);
    static std::string percent(double fraction, int precision = 1);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace rome

#endif // ROME_COMMON_TABLE_H
