# Included at the end of the repository's project() call (run.py passes
# this file as CMAKE_PROJECT_INCLUDE): adds the benchmark driver to the
# repository's build. The scibench targets it links are defined later in
# the top-level CMakeLists.txt; CMake resolves them when it generates.
add_subdirectory("${CMAKE_CURRENT_LIST_DIR}" perfbench)
